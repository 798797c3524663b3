// Command perfbench is quditkit's end-to-end and per-layer benchmark.
// It starts quditd's real components on loopback inside this process,
// assembled the way cmd/quditd assembles a standalone node or a
// coordinator with workers, and drives them over HTTP with closed-loop
// clients. See README.md in this directory for the workloads, the
// metrics and how they relate.
//
//	bash perfbench/run.sh --workload traj-ghz --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// separate traced run reports the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command-line settings every workload reads.
type config struct {
	seed    int64
	seconds int
	// shots overrides the traj-ghz shot count; the sensitivity check
	// runs it at 614 (1.2x the 512-shot work).
	shots int
	// stateRoot is the directory under which fleet workloads keep
	// their journals and checkpoints, one state-* directory per run.
	stateRoot string
}

// workload is one traffic mix.
type workload interface {
	// prepare generates every request body from the seed. It runs
	// before set-up and is timed by neither setup_s nor the run.
	prepare(cfg config) error
	// start brings the stack up and runs the fixed warm-up pass; its
	// duration is one setup_s sample. tr is nil in untraced runs.
	start(tr *tracer) (stack, error)
	// clients is the number of closed-loop client goroutines.
	clients() int
	// request issues request number i of the timed phase and returns
	// how many jobs it settled. An output check that fails is an error.
	request(st stack, i int) (jobs int, err error)
	// verify runs the output checks deferred past the timed phase.
	verify() error
	// layers times calls into each layer's public functions on the
	// workload's own requests (traced runs only). ph is the traced
	// end-to-end phase, whose counter deltas and latencies it reads.
	layers(st stack, ph phaseResult) (map[string]float64, error)
}

// stack is a running node or fleet.
type stack interface {
	// close stops every server, goroutine and file the stack owns.
	close()
	// counters samples the layers' Stats counters.
	counters() counterSnap
	// depths samples the live queue depth of every serve shard.
	depths() []int
}

var workloads = map[string]func() workload{
	"traj-ghz":    func() workload { return &trajGHZ{} },
	"api-mix":     func() workload { return &apiMix{} },
	"sweep-fleet": func() workload { return &sweepFleet{} },
}

func main() {
	name := flag.String("workload", "", "workload: traj-ghz, api-mix or sweep-fleet")
	seed := flag.Int64("seed", 1, "workload seed; every request body derives from it")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	shots := flag.Int("shots", 512, "traj-ghz shots per request (614 is the sensitivity check)")
	state := flag.String("state", ".bench_build", "directory under which sweep-fleet keeps its journals and checkpoints")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *shots < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload traj-ghz|api-mix|sweep-fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, shots: *shots, stateRoot: *state}
	var rep report
	var err error
	if *trace == 1 {
		rep, err = runTraced(mk(), cfg)
	} else {
		rep, err = runEndToEnd(mk(), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(rep)
}

// units names the unit of every metric the benchmark can report.
var units = map[string]string{
	"setup_s":        "s",
	"jobs_per_s":     "1/s",
	"latency_p90_ms": "ms",
	"cpu_ms_per_job": "ms",
	"peak_rss_mb":    "MB",

	"serve.decode_us":                "us",
	"serve.cache_hit_us":             "us",
	"serve.encode_us":                "us",
	"serve.result_cache_hit_ratio":   "ratio",
	"serve.result_cache_evictions":   "count",
	"serve.shard_depth_max":          "jobs",
	"serve.shard_depth_min":          "jobs",
	"transpile.run_us":               "us",
	"core.plan_cache_hit_ratio":      "ratio",
	"core.execute_ms":                "ms",
	"circuit.compile_us":             "us",
	"circuit.shot_us":                "us",
	"circuit.gate_kernels_us":        "us",
	"circuit.noise_channels_us":      "us",
	"circuit.readout_us":             "us",
	"journal.appends_per_job":        "count",
	"journal.wal_bytes_per_job":      "B",
	"journal.append_us":              "us",
	"cluster.hop_ms":                 "ms",
	"cluster.checkpoint_ms_per_job":  "ms",
	"cluster.spills":                 "count",
	"cluster.requeued":               "count",
	"experiment.submit_ms":           "ms",
	"experiment.aggregate_ms":        "ms",
	"http.client_overhead_us":        "us",
	"trace.layer_share":              "ratio",
	"trace.overhead_jobs_per_s_pct":  "%",
	"trace.overhead_latency_p50_pct": "%",
}

// layerMetrics lists the per-layer metrics in report order. Every
// traced run prints all of them; a layer that is not on a workload's
// path reports 0 there (README.md maps metrics to workloads).
var layerMetrics = []string{
	"serve.decode_us", "serve.cache_hit_us", "serve.encode_us",
	"serve.result_cache_hit_ratio", "serve.result_cache_evictions",
	"serve.shard_depth_max", "serve.shard_depth_min",
	"transpile.run_us", "core.plan_cache_hit_ratio", "core.execute_ms",
	"circuit.compile_us", "circuit.shot_us", "circuit.gate_kernels_us",
	"circuit.noise_channels_us", "circuit.readout_us",
	"journal.appends_per_job", "journal.wal_bytes_per_job", "journal.append_us",
	"cluster.hop_ms", "cluster.checkpoint_ms_per_job", "cluster.spills", "cluster.requeued",
	"experiment.submit_ms", "experiment.aggregate_ms",
	"http.client_overhead_us", "trace.layer_share",
	"trace.overhead_jobs_per_s_pct", "trace.overhead_latency_p50_pct",
}

const (
	// setupRuns is how many times an end-to-end run sets up; setup_s is
	// the median, and the last stack serves the timed phase.
	setupRuns = 5
	// The timing metrics are read from the slowest tenth of the timed
	// phase's windows (phaseResult.slowest), widened until the latency
	// p90 has at least ten requests beyond it.
	slowShare   = 0.1
	slowMinReqs = 100
)

// runEndToEnd measures set-up setupRuns times, then drives the last
// stack for cfg.seconds with tracing off.
func runEndToEnd(w workload, cfg config) (report, error) {
	if err := w.prepare(cfg); err != nil {
		return report{}, fmt.Errorf("preparing requests: %w", err)
	}
	st, setups, err := startRepeated(w, setupRuns)
	if err != nil {
		return report{}, err
	}
	ph := drive(w, st, 0, time.Duration(cfg.seconds)*time.Second, nil)
	st.close()
	// Read before verify, which may compute more reference
	// distributions: peak memory is the program's, not the checks'.
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	failed := ph.failed
	correct := failed == 0
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		correct = false
		failed++
	}
	slow := ph.slowest(slowShare, slowMinReqs)
	if slow.jobs == 0 {
		return report{}, fmt.Errorf("the timed phase settled no full %v window", windowLen)
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"jobs_per_s":     slow.jobsPerSecond(),
		"latency_p90_ms": quantile(slow.latencies(), 0.9),
		"cpu_ms_per_job": slow.cpuMSPerJob(),
		"peak_rss_mb":    rss,
	}
	fmt.Printf("timed phase: %d requests, %d jobs in %.3fs, %.2f jobs/s, %.3f CPU ms/job; set-up samples %v\n",
		ph.attempted, ph.jobs, ph.elapsed.Seconds(), ph.jobsPerSecond(), ph.cpuMSPerJob(), setups)
	fmt.Print("window jobs/s:")
	for _, win := range ph.wins {
		if win.full {
			fmt.Printf(" %.0f", win.jobsPerSecond())
		}
	}
	fmt.Println()
	fmt.Printf("slowest windows: %d requests, %d jobs in %.3fs\n", slow.attempted, slow.jobs, slow.elapsed.Seconds())
	// The median latency is printed but left out of the result: on
	// traj-ghz it moved between runs by more than any bound the
	// benchmark may set (README.md).
	fmt.Printf("latency p50 %.4f ms over the slowest windows, %.4f ms over the phase (not in the result)\n",
		quantile(slow.latencies(), 0.5), quantile(ph.latencies(), 0.5))
	fmt.Print("latency deciles over the phase (ms):")
	for q := 0.1; q < 0.95; q += 0.1 {
		fmt.Printf(" %.3f", quantile(ph.latencies(), q))
	}
	fmt.Println()
	return report{Correct: correct, Attempted: ph.attempted, Failed: failed, Metrics: withUnits(vals)}, nil
}

// startRepeated runs set-up n times and keeps the last stack running;
// it returns the set-up durations in seconds.
func startRepeated(w workload, n int) (stack, []float64, error) {
	var samples []float64
	for {
		t0 := time.Now()
		st, err := w.start(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", len(samples), err)
		}
		samples = append(samples, time.Since(t0).Seconds())
		if len(samples) == n {
			return st, samples, nil
		}
		st.close()
	}
}

// runTraced is the per-layer run: one set-up, untraced and traced
// quarters of cfg.seconds in turn (their difference is the tracing
// overhead), then the layer timings.
func runTraced(w workload, cfg config) (report, error) {
	if err := w.prepare(cfg); err != nil {
		return report{}, fmt.Errorf("preparing requests: %w", err)
	}
	tr := &tracer{}
	st, err := w.start(tr)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	// Untraced and traced quarters alternate, so warm-up drift does not
	// read as tracing overhead.
	quarter := time.Duration(cfg.seconds) * time.Second / 4
	plain := drive(w, st, 0, quarter, nil)
	traced := drive(w, st, plain.attempted, quarter, tr)
	plain = plain.merge(drive(w, st, plain.attempted+traced.attempted, quarter, nil))
	traced = traced.merge(drive(w, st, plain.attempted+traced.attempted, quarter, tr))
	failed := plain.failed + traced.failed
	correct := failed == 0
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		correct = false
		failed++
	}
	vals, err := w.layers(st, traced)
	if err != nil {
		return report{}, fmt.Errorf("layer timings: %w", err)
	}
	vals["http.client_overhead_us"] = tr.clientOverheadMicros()
	vals["trace.overhead_jobs_per_s_pct"] = 100 * (plain.jobsPerSecond()/traced.jobsPerSecond() - 1)
	vals["trace.overhead_latency_p50_pct"] = 100 * (quantile(traced.latencies(), 0.5)/quantile(plain.latencies(), 0.5) - 1)
	out := make(map[string]float64, len(layerMetrics))
	for _, name := range layerMetrics {
		out[name] = vals[name] // absent: the layer is not on this workload's path
	}
	fmt.Printf("untraced phase: %.2f jobs/s p50 %.3fms; traced phase: %.2f jobs/s p50 %.3fms\n",
		plain.jobsPerSecond(), quantile(plain.latencies(), 0.5),
		traced.jobsPerSecond(), quantile(traced.latencies(), 0.5))
	return report{Correct: correct, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: withUnits(out)}, nil
}

func withUnits(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: metric without a unit: " + name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out
}

// printReport prints one human-readable line per metric, then the
// JSON result as the last line.
func printReport(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
