package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"quditkit/internal/core"
	"quditkit/internal/hilbert"
	"quditkit/internal/serve"
)

// trajGHZ is the tracked trajectory job of BenchmarkSubmitTrajectories
// (bench_test.go) served under load: two closed-loop
// clients POST /v1/jobs?wait=1 with the noisy 4-qutrit GHZ circuit on
// the trajectory backend, each with a fresh seed, so every request
// misses the result cache, hits the plan cache, and spends its time in
// shot execution.
type trajGHZ struct {
	shots  int
	warm   [][]byte // warm-up pass, seeds disjoint from the timed phase
	timed  [][]byte // timed phase, cycled
	layerB [][]byte // traced layer timings
	seeds  []int64  // seed of each timed body

	// exact maps a routing key (see layoutKey) to the job's exact
	// logical distribution from the density-matrix backend, coarsened
	// for the total-variation check.
	mu      sync.Mutex
	exact   map[string]tvCheck
	pending []pendingHist // histograms whose routing key had no reference yet
	proc    *core.Processor
}

const (
	ghzWarmRequests = 48
	// ghzTimedPool is the number of distinct timed requests, cycled.
	// Between two uses of one seed lie ghzTimedPool-1 other jobs, far
	// more than the node retains (nodeRetain), so every request still
	// misses the result cache; the pool does not grow with --seconds,
	// so neither does the benchmark's own share of peak_rss_mb.
	ghzTimedPool = 1024
	ghzLayerJobs = 24
	// tvFalseAlarm is the per-histogram false-alarm rate of the
	// total-variation check.
	tvFalseAlarm = 1e-10
	// tvCellFloor: outcomes at least this likely get their own cell in
	// the coarsened distribution; the rest share one.
	tvCellFloor = 0.01
)

func ghzSpec() serve.CircuitSpec {
	spec := serve.CircuitSpec{Dims: []int{3, 3, 3, 3}, Ops: []serve.OpSpec{{Gate: "dft", Targets: []int{0}}}}
	for q := 1; q < 4; q++ {
		spec.Ops = append(spec.Ops, serve.OpSpec{Gate: "csum", Targets: []int{0, q}})
	}
	return spec
}

func (w *trajGHZ) body(seed int64, backend string) ([]byte, error) {
	req := serve.JobRequest{Circuit: ghzSpec(), Backend: backend, Seed: &seed, DeriveNoiseDim: 3}
	if backend == "trajectory" {
		req.Shots = w.shots
	}
	return json.Marshal(req)
}

func (w *trajGHZ) bodies(cfg config, stream string, n int) ([][]byte, []int64, error) {
	out := make([][]byte, n)
	seeds := make([]int64, n)
	for i := range out {
		seeds[i] = seedFor(cfg.seed, stream, i)
		b, err := w.body(seeds[i], "trajectory")
		if err != nil {
			return nil, nil, err
		}
		out[i] = b
	}
	return out, seeds, nil
}

func (w *trajGHZ) prepare(cfg config) error {
	w.shots = cfg.shots
	var err error
	if w.warm, _, err = w.bodies(cfg, "ghz-warm", ghzWarmRequests); err != nil {
		return err
	}
	if w.timed, w.seeds, err = w.bodies(cfg, "ghz-timed", ghzTimedPool); err != nil {
		return err
	}
	if w.layerB, _, err = w.bodies(cfg, "ghz-layers", ghzLayerJobs); err != nil {
		return err
	}
	if w.proc, err = core.NewCompactProcessor(nodeCavities, nodeModes, nodeSeed); err != nil {
		return err
	}
	w.exact = map[string]tvCheck{}
	// The reference distribution for the seeds' routing; any other
	// routing a later request reports gets its own after the run.
	_, err = w.reference(seedFor(cfg.seed, "ghz-warm", 0))
	return err
}

// reference returns the check for the routing that seed produces,
// computing the exact distribution with the density-matrix backend on
// first use.
func (w *trajGHZ) reference(seed int64) (string, error) {
	body, err := w.body(seed, "density-matrix")
	if err != nil {
		return "", err
	}
	_, circ, opts, err := decode(w.proc, body)
	if err != nil {
		return "", err
	}
	lowered, err := w.proc.Transpile(circ, opts...)
	if err != nil {
		return "", err
	}
	key := layoutKey(lowered.Mapping.LogicalToMode, lowered.Report.FinalLayout, lowered.Report.SwapsInserted)
	w.mu.Lock()
	_, ok := w.exact[key]
	w.mu.Unlock()
	if ok {
		return key, nil
	}
	res, err := w.proc.SubmitOne(circ, opts...)
	if err != nil {
		return "", err
	}
	probs, err := res.Probabilities()
	if err != nil {
		return "", err
	}
	space, err := hilbert.NewSpace(lowered.Physical.Dims())
	if err != nil {
		return "", err
	}
	dec := hilbert.NewDigitDecoder(space)
	layout := lowered.Report.FinalLayout
	logical := map[string]float64{}
	digits := make([]int, len(layout))
	for idx, p := range probs {
		phys := dec.Decode(idx)
		for q, mode := range layout {
			digits[q] = phys[mode]
		}
		logical[core.CountsKey(digits)] += p
	}
	w.mu.Lock()
	w.exact[key] = newTVCheck(logical, w.shots)
	w.mu.Unlock()
	return key, nil
}

func layoutKey(mapping, final []int, swaps int) string {
	return fmt.Sprint(mapping, final, swaps)
}

func (w *trajGHZ) clients() int { return 2 }

func (w *trajGHZ) start(tr *tracer) (stack, error) {
	core.PlanCacheReset() // every set-up compiles the plan afresh
	st, err := startStandalone(tr)
	if err != nil {
		return nil, err
	}
	if err := inParallel(w.clients(), len(w.warm), func(i int) error {
		return w.post(st, w.warm[i], -1)
	}); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

func (w *trajGHZ) request(s stack, i int) (int, error) {
	k := i % len(w.timed)
	return 1, w.post(s.(*standalone), w.timed[k], w.seeds[k])
}

// jobReply is the part of a JobView the checks read.
type jobReply struct {
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Result *struct {
		Shots         int            `json:"shots"`
		Counts        map[string]int `json:"counts"`
		Mapping       []int          `json:"mapping"`
		FinalLayout   []int          `json:"final_layout"`
		SwapsInserted int            `json:"swaps_inserted"`
	} `json:"result"`
}

// postJob POSTs one job with ?wait=1 and decodes the settled reply.
func postJob(c *client, url string, body []byte) (jobReply, []byte, error) {
	status, raw, err := c.do("POST", url+"/v1/jobs?wait=1", body)
	if err != nil {
		return jobReply{}, nil, err
	}
	var rep jobReply
	if status != 200 {
		return rep, raw, fmt.Errorf("status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, raw, err
	}
	if rep.State != "done" || rep.Result == nil {
		return rep, raw, fmt.Errorf("job %s: %s", rep.State, rep.Error)
	}
	total := 0
	for _, n := range rep.Result.Counts {
		total += n
	}
	if total != rep.Result.Shots {
		return rep, raw, fmt.Errorf("histogram sums to %d, want %d", total, rep.Result.Shots)
	}
	return rep, raw, nil
}

// post submits one GHZ job and checks its histogram against the exact
// distribution of its routing. seed < 0 marks a warm-up request, whose
// routing must already have a reference.
func (w *trajGHZ) post(st *standalone, body []byte, seed int64) error {
	rep, _, err := postJob(st.c, st.srv.url, body)
	if err != nil {
		return err
	}
	if rep.Result.Shots != w.shots {
		return fmt.Errorf("reply has %d shots, want %d", rep.Result.Shots, w.shots)
	}
	key := layoutKey(rep.Result.Mapping, rep.Result.FinalLayout, rep.Result.SwapsInserted)
	w.mu.Lock()
	chk, ok := w.exact[key]
	if !ok && seed >= 0 {
		w.pending = append(w.pending, pendingHist{seed: seed, key: key, counts: rep.Result.Counts})
	}
	w.mu.Unlock()
	if !ok {
		if seed < 0 {
			return fmt.Errorf("warm-up routing %s has no reference distribution", key)
		}
		return nil
	}
	return chk.check(rep.Result.Counts)
}

// verify checks the histograms whose routing first appeared in the
// timed phase against exact distributions computed now.
func (w *trajGHZ) verify() error {
	for _, p := range w.pending {
		key, err := w.reference(p.seed)
		if err != nil {
			return err
		}
		if key != p.key {
			return fmt.Errorf("seed %d routes as %s, reply reported %s", p.seed, key, p.key)
		}
		if err := w.exact[key].check(p.counts); err != nil {
			return err
		}
	}
	return nil
}

func (w *trajGHZ) layers(s stack, ph phaseResult) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	if out["serve.decode_us"], err = decodeMicros(w.proc, w.timed[:200]); err != nil {
		return nil, err
	}
	if out["transpile.run_us"], out["core.execute_ms"], out["serve.encode_us"], err = executeLayers(w.proc, w.layerB); err != nil {
		return nil, err
	}
	ct, err := circuitLayers(w.proc, w.layerB[:4], w.shots)
	if err != nil {
		return nil, err
	}
	fillCircuit(ct, out)
	serveCounterLayers(ph, out)
	// Both clients' jobs share one shard, so a request waits for about
	// one other job: the share is expected near 0.5.
	out["trace.layer_share"] = ratio(out["core.execute_ms"], quantile(ph.latencies(), 0.5))
	fmt.Printf("execute %.3fms per job against a traced p50 of %.3fms\n", out["core.execute_ms"], quantile(ph.latencies(), 0.5))
	return out, nil
}

// pendingHist is a timed-phase histogram checked after the run.
type pendingHist struct {
	seed   int64
	key    string
	counts map[string]int
}

// tvCheck tests a shot histogram against an exact distribution by
// total variation on a coarsening fixed before any shot is seen: every
// outcome with probability ≥ tvCellFloor is its own cell, the rest
// share one. By the Bretagnolle–Huber–Carol inequality, n shots from
// the exact distribution exceed total variation ε on k cells with
// probability at most 2^k·exp(−2nε²); bound is the ε at which that
// equals tvFalseAlarm.
type tvCheck struct {
	cellOf map[string]int
	probs  []float64 // per cell; the last is the shared rest
	bound  float64
}

func newTVCheck(exact map[string]float64, shots int) tvCheck {
	keys := make([]string, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := tvCheck{cellOf: map[string]int{}}
	var rest float64
	for _, k := range keys {
		if p := exact[k]; p >= tvCellFloor {
			c.cellOf[k] = len(c.probs)
			c.probs = append(c.probs, p)
		} else {
			rest += p
		}
	}
	c.probs = append(c.probs, rest)
	cells := float64(len(c.probs))
	c.bound = math.Sqrt((cells*math.Ln2 + math.Log(1/tvFalseAlarm)) / (2 * float64(shots)))
	return c
}

func (c tvCheck) check(counts map[string]int) error {
	obs := make([]float64, len(c.probs))
	total := 0
	for k, n := range counts {
		cell, ok := c.cellOf[k]
		if !ok {
			cell = len(c.probs) - 1
		}
		obs[cell] += float64(n)
		total += n
	}
	var tv float64
	for i, p := range c.probs {
		tv += math.Abs(obs[i]/float64(total) - p)
	}
	tv /= 2
	if tv > c.bound {
		return fmt.Errorf("histogram is %.3f from the exact distribution in total variation, bound %.3f", tv, c.bound)
	}
	return nil
}

// inParallel runs fn(0..n-1) on the given number of goroutines, each
// taking the next index when its previous call returns, and returns
// the first error.
func inParallel(workers, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
