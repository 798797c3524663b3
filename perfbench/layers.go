package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/serve"
)

// seedFor derives seed number i of a named stream from the workload
// seed. Distinct streams (warm-up, timed, layer timings) never share
// seeds, so no phase is answered from a cache another phase filled.
func seedFor(base int64, stream string, i int) int64 {
	return core.DeriveSeed(base, fmt.Sprintf("perfbench/%s/%d", stream, i))
}

// decode is the node's wire decode: json.Unmarshal, serve.BuildCircuit
// and JobRequest.Options, as the POST /v1/jobs handler runs them.
func decode(proc *core.Processor, body []byte) (serve.JobRequest, *circuit.Circuit, []core.RunOption, error) {
	var req serve.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, nil, err
	}
	circ, err := serve.BuildCircuit(req.Circuit)
	if err != nil {
		return req, nil, nil, err
	}
	opts, err := req.Options(proc)
	return req, circ, opts, err
}

// decodeMicros is the median decode time over bodies.
func decodeMicros(proc *core.Processor, bodies [][]byte) (float64, error) {
	return timeMedian(len(bodies), func(i int) error {
		_, _, _, err := decode(proc, bodies[i])
		return err
	})
}

// executeLayers runs each body through Processor.SubmitOne, as a shard
// worker does, and times the encode of each result: serve.NewResultView
// and json.Marshal. It also times Processor.Transpile on the same jobs.
func executeLayers(proc *core.Processor, bodies [][]byte) (transpileUS, executeMS, encodeUS float64, err error) {
	var tr, ex, enc []float64
	for _, body := range bodies {
		_, circ, opts, err := decode(proc, body)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		if _, err := proc.Transpile(circ, opts...); err != nil {
			return 0, 0, 0, err
		}
		tr = append(tr, micros(time.Since(t0)))
		t0 = time.Now()
		res, err := proc.SubmitOne(circ, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		ex = append(ex, micros(time.Since(t0))/1000)
		t0 = time.Now()
		if _, err := json.Marshal(serve.NewResultView(res)); err != nil {
			return 0, 0, 0, err
		}
		enc = append(enc, micros(time.Since(t0)))
	}
	return median(tr), median(ex), median(enc), nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// circuitTimes are the circuit layer's per-call timings in µs.
type circuitTimes struct {
	compile, shot, gates, noise, readout float64
}

// circuitLayers times the circuit layer on the transpiled jobs of
// bodies: Circuit.Compile with the job's noise model, Plan.RunShot on
// that plan and on the same circuit compiled noiseless (their
// difference is the noise channels), and the readout a trajectory shot
// pays: BornProbabilities plus a qmath.CDFSampler Load and Draw.
// Shot figures are per shot, averaged over shots per body; each figure
// is the median over bodies.
func circuitLayers(proc *core.Processor, bodies [][]byte, shots int) (circuitTimes, error) {
	var compile, shot, gates, readout []float64
	for k, body := range bodies {
		req, circ, opts, err := decode(proc, body)
		if err != nil {
			return circuitTimes{}, err
		}
		lowered, err := proc.Transpile(circ, opts...)
		if err != nil {
			return circuitTimes{}, err
		}
		var model noise.Model
		switch {
		case req.DeriveNoiseDim > 0:
			if model, err = proc.NoiseModelForDim(req.DeriveNoiseDim); err != nil {
				return circuitTimes{}, err
			}
		case lowered.Noise != nil:
			model = *lowered.Noise
		}
		t0 := time.Now()
		noisy, err := lowered.Physical.Compile(model)
		if err != nil {
			return circuitTimes{}, err
		}
		compile = append(compile, micros(time.Since(t0)))
		rng := rand.New(rand.NewSource(int64(k)))
		s, r, err := shotMicros(noisy, rng, shots)
		if err != nil {
			return circuitTimes{}, err
		}
		shot, readout = append(shot, s), append(readout, r)
		if model.IsZero() {
			gates = append(gates, s)
			continue
		}
		pure, err := lowered.Physical.Compile(noise.Model{})
		if err != nil {
			return circuitTimes{}, err
		}
		g, _, err := shotMicros(pure, rng, shots)
		if err != nil {
			return circuitTimes{}, err
		}
		gates = append(gates, g)
	}
	out := circuitTimes{compile: median(compile), shot: median(shot), gates: median(gates), readout: median(readout)}
	out.noise = out.shot - out.gates
	return out, nil
}

// shotMicros runs shots trajectories of plan and returns the mean
// Plan.RunShot time and the mean readout time per shot in µs.
func shotMicros(plan *circuit.Plan, rng *rand.Rand, shots int) (shotUS, readoutUS float64, err error) {
	ws, err := plan.NewWorkspace()
	if err != nil {
		return 0, 0, err
	}
	var sampler qmath.CDFSampler
	var run, read time.Duration
	for i := 0; i < shots; i++ {
		t0 := time.Now()
		if _, err := plan.RunShot(ws, rng); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		sampler.Load(ws.BornProbabilities())
		sampler.Draw(rng)
		read += time.Since(t1)
		run += t1.Sub(t0)
	}
	return micros(run) / float64(shots), micros(read) / float64(shots), nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serveCounterLayers fills the serve and core counter metrics from a
// phase's Stats deltas and shard-depth samples.
func serveCounterLayers(ph phaseResult, out map[string]float64) {
	hits := float64(ph.after.cacheHits - ph.before.cacheHits)
	misses := float64(ph.after.cacheMisses - ph.before.cacheMisses)
	out["serve.result_cache_hit_ratio"] = ratio(hits, hits+misses)
	out["serve.result_cache_evictions"] = float64(ph.after.cacheEvictions - ph.before.cacheEvictions)
	out["serve.shard_depth_max"] = ph.depthMax
	out["serve.shard_depth_min"] = ph.depthMin
	planHits := float64(ph.after.planHits - ph.before.planHits)
	planMisses := float64(ph.after.planMisses - ph.before.planMisses)
	out["core.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
}

// fillCircuit copies circuit-layer timings into out.
func fillCircuit(ct circuitTimes, out map[string]float64) {
	out["circuit.compile_us"] = ct.compile
	out["circuit.shot_us"] = ct.shot
	out["circuit.gate_kernels_us"] = ct.gates
	out["circuit.noise_channels_us"] = ct.noise
	out["circuit.readout_us"] = ct.readout
}
