package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/serve"
)

// apiMix is the service path without heavy simulation: two
// closed-loop clients, three requests in four answered from the result
// cache (a hot set the warm-up filled), one in four a circuit the node
// has not seen, which is transpiled against a wire-requested device,
// compiled, run on the statevector backend and cached, evicting older
// entries.
type apiMix struct {
	hot      [][]byte // the hot set
	hotFirst [][]byte // each hot request's first result bytes
	hotSched []int    // hot index per hot request, permutation by permutation
	warmCold [][]byte // cold circuits of the warm-up pass
	cold     [][]byte // cold circuits of the timed phase, cycled
	layerB   [][]byte // cold circuits for the traced layer timings
	proc     *core.Processor
}

const (
	mixHot        = 64
	mixGates      = 40
	mixShots      = 128
	mixWarmMixed  = 768
	mixColdPool   = 4096
	mixLayerJobs  = 60
	mixLayerHTTP  = 100
	mixCacheCalls = 1000
)

// The cold pool is cycled when a run outpaces it. Between two uses of
// one cold circuit lie mixColdPool-1 other cold inserts, far more than
// the node's result cache (256 entries) or plan cache (128) can hold,
// so a reused cold circuit is still a miss in both.

// randomCircuit draws a 4-qutrit circuit of mixGates gates from the
// wire vocabulary.
func randomCircuit(rng *rand.Rand) serve.CircuitSpec {
	angle := func() float64 { return math.Round(rng.Float64()*2*math.Pi*1e4) / 1e4 }
	spec := serve.CircuitSpec{Dims: []int{3, 3, 3, 3}}
	for len(spec.Ops) < mixGates {
		a := rng.Intn(4)
		b := (a + 1 + rng.Intn(3)) % 4
		var op serve.OpSpec
		switch rng.Intn(12) {
		case 0:
			op = serve.OpSpec{Gate: "dft", Targets: []int{a}}
		case 1:
			op = serve.OpSpec{Gate: "xpow", Targets: []int{a}, K: 1 + rng.Intn(2)}
		case 2:
			op = serve.OpSpec{Gate: "phase", Targets: []int{a}, Level: rng.Intn(3), Phi: angle()}
		case 3:
			lv := rng.Intn(3)
			op = serve.OpSpec{Gate: "givens", Targets: []int{a}, Level: lv, K: (lv + 1 + rng.Intn(2)) % 3, Theta: angle(), Phi: angle()}
		case 4:
			op = serve.OpSpec{Gate: "snap", Targets: []int{a}, Phases: []float64{angle(), angle(), angle()}}
		case 5:
			op = serve.OpSpec{Gate: "rotor", Targets: []int{a}, Beta: angle()}
		case 6:
			op = serve.OpSpec{Gate: "fourier", Targets: []int{a}, Beta: angle()}
		case 7:
			op = serve.OpSpec{Gate: "csum", Targets: []int{a, b}}
		case 8:
			op = serve.OpSpec{Gate: "csuminv", Targets: []int{a, b}}
		case 9:
			op = serve.OpSpec{Gate: "cz", Targets: []int{a, b}}
		case 10:
			op = serve.OpSpec{Gate: "eqphase", Targets: []int{a, b}, Phi: angle()}
		default:
			op = serve.OpSpec{Gate: "hop", Targets: []int{a, b}, Theta: angle()}
		}
		spec.Ops = append(spec.Ops, op)
	}
	return spec
}

func mixBodies(rng *rand.Rand, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		b, err := json.Marshal(serve.JobRequest{
			Circuit: randomCircuit(rng),
			Device:  &serve.DeviceSpec{Cavities: 2, Modes: 2, Level: 1},
			Shots:   mixShots,
		})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (w *apiMix) prepare(cfg config) error {
	var err error
	streams := []struct {
		name string
		dst  *[][]byte
		n    int
	}{
		{"mix-hot", &w.hot, mixHot},
		{"mix-warm", &w.warmCold, mixWarmMixed / 4},
		{"mix-cold", &w.cold, mixColdPool},
		{"mix-layers", &w.layerB, mixLayerJobs + mixLayerHTTP},
	}
	for _, s := range streams {
		rng := rand.New(rand.NewSource(seedFor(cfg.seed, s.name, 0)))
		if *s.dst, err = mixBodies(rng, s.n); err != nil {
			return err
		}
	}
	// Hot requests walk random permutations of the hot set, so every
	// hot entry is read at least once per 2·mixHot hot requests and
	// stays far from the LRU end of the cache.
	rng := rand.New(rand.NewSource(seedFor(cfg.seed, "mix-schedule", 0)))
	for len(w.hotSched) < 64*mixHot {
		w.hotSched = append(w.hotSched, rng.Perm(mixHot)...)
	}
	w.hotFirst = make([][]byte, mixHot)
	w.proc, err = core.NewCompactProcessor(nodeCavities, nodeModes, nodeSeed)
	return err
}

func (w *apiMix) clients() int { return 2 }

// resultPart is the reply from its result field on: everything but
// the job ID, state and cached flag.
func resultPart(raw []byte) []byte {
	i := bytes.Index(raw, []byte(`,"result":`))
	if i < 0 {
		return nil
	}
	return raw[i:]
}

func (w *apiMix) start(tr *tracer) (stack, error) {
	core.PlanCacheReset()
	st, err := startStandalone(tr)
	if err != nil {
		return nil, err
	}
	// First answers of the hot set: each must equal the first answer
	// of every earlier set-up in this run.
	err = inParallel(2, mixHot, func(i int) error {
		rep, raw, err := postJob(st.c, st.srv.url, w.hot[i])
		if err != nil {
			return err
		}
		if rep.Result.Shots != mixShots {
			return fmt.Errorf("reply has %d shots, want %d", rep.Result.Shots, mixShots)
		}
		part := resultPart(raw)
		if w.hotFirst[i] != nil && !bytes.Equal(w.hotFirst[i], part) {
			return fmt.Errorf("hot request %d answered differently in two set-ups", i)
		}
		w.hotFirst[i] = part
		return nil
	})
	if err == nil {
		err = inParallel(2, mixWarmMixed, func(i int) error {
			if i%4 == 3 {
				return w.cold1(st, w.warmCold[i/4])
			}
			return w.hot1(st, w.hotSched[len(w.hotSched)-1-i])
		})
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

func (w *apiMix) request(s stack, i int) (int, error) {
	st := s.(*standalone)
	if i%4 == 3 {
		return 1, w.cold1(st, w.cold[(i/4)%len(w.cold)])
	}
	h := (i/4)*3 + i%4
	return 1, w.hot1(st, w.hotSched[h%len(w.hotSched)])
}

// hot1 reads one hot entry: it must come from the cache, byte-equal
// to the entry's first answer.
func (w *apiMix) hot1(st *standalone, idx int) error {
	status, raw, err := st.c.do("POST", st.srv.url+"/v1/jobs?wait=1", w.hot[idx])
	if err != nil {
		return err
	}
	if status != 200 || !bytes.Contains(raw, []byte(`"cached":true`)) {
		return fmt.Errorf("hot request %d not answered from the cache (status %d)", idx, status)
	}
	if !bytes.Equal(resultPart(raw), w.hotFirst[idx]) {
		return fmt.Errorf("hot request %d: cached result differs from its first answer", idx)
	}
	return nil
}

// cold1 submits one unseen circuit; its histogram must hold every shot.
func (w *apiMix) cold1(st *standalone, body []byte) error {
	rep, _, err := postJob(st.c, st.srv.url, body)
	if err != nil {
		return err
	}
	if rep.Result.Shots != mixShots {
		return fmt.Errorf("reply has %d shots, want %d", rep.Result.Shots, mixShots)
	}
	return nil
}

func (w *apiMix) verify() error { return nil }

func (w *apiMix) layers(s stack, ph phaseResult) (map[string]float64, error) {
	st := s.(*standalone)
	out := map[string]float64{}
	var err error
	if out["serve.decode_us"], err = decodeMicros(w.proc, w.cold[:200]); err != nil {
		return nil, err
	}
	hot := make([]struct {
		circ *circuit.Circuit
		opts []core.RunOption
	}, mixHot)
	for i := range hot {
		if _, hot[i].circ, hot[i].opts, err = decode(w.proc, w.hot[i]); err != nil {
			return nil, err
		}
	}
	out["serve.cache_hit_us"], err = timeMedian(mixCacheCalls, func(i int) error {
		h := hot[i%mixHot]
		id, err := st.svc.EnqueueAs(nil, h.circ, h.opts...)
		if err != nil {
			return err
		}
		_, err = st.svc.Await(context.Background(), id)
		return err
	})
	if err != nil {
		return nil, err
	}
	layerJobs, httpJobs := w.layerB[:mixLayerJobs], w.layerB[mixLayerJobs:]
	if out["transpile.run_us"], out["core.execute_ms"], out["serve.encode_us"], err = executeLayers(w.proc, layerJobs); err != nil {
		return nil, err
	}
	ct, err := circuitLayers(w.proc, layerJobs[:8], mixShots)
	if err != nil {
		return nil, err
	}
	fillCircuit(ct, out)
	serveCounterLayers(ph, out)
	// CPU of one cold request over HTTP, one client, against the sum
	// of its layers: decode, execute (transpile, compile, run), encode,
	// and the garbage collection their allocations cause, which runs
	// beside them on the other core.
	cpu0, gc0, t0 := cpuTime(), gcCPU(), time.Now()
	for _, body := range httpJobs {
		if err := w.cold1(st, body); err != nil {
			return nil, err
		}
	}
	n := float64(len(httpJobs))
	coldCPU := micros(cpuTime()-cpu0) / n
	gc := micros(gcCPU()-gc0) / n
	layerSum := out["serve.decode_us"] + 1000*out["core.execute_ms"] + out["serve.encode_us"]
	fmt.Printf("cold request over HTTP: %.1fus CPU (%.1fus of it GC), %.1fus wall; layers %.1fus\n",
		coldCPU, gc, micros(time.Since(t0))/n, layerSum)
	out["trace.layer_share"] = ratio(layerSum+gc, coldCPU)
	return out, nil
}
