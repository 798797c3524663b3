package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/journal"
	"quditkit/internal/serve"
)

// sweepFleet drives the fleet's durability and dispatch layers: one
// client POSTs QAOA coloring sweeps to a coordinator (with a state
// checkpoint and a sweep journal) that fans the cells across two
// workers with job journals, and waits for each sweep to complete.
// Cells are about a millisecond of compute, so dispatch hops,
// coordinator bookkeeping, the checkpoint rewrite and journal appends
// do the work.
type sweepFleet struct {
	stateDir string
	warm     [][]byte
	timed    [][]byte // cycled
	ckpt     [][]byte // sweeps of the checkpoint on/off comparison
	seeds    int64    // base of the fresh cell seeds of the layer timings
	proc     *core.Processor

	mu          sync.Mutex
	submitMS    []float64
	aggregateMS []float64
	walBytes    int64 // journal bytes of traced sweeps without a compaction
	walJobs     int   // cells of those sweeps
	capture     *captureTransport
}

const (
	sweepColors   = 3
	sweepCells    = 64
	sweepParallel = 2
	sweepWarm     = 4
	// sweepTimedPool is the number of distinct timed sweeps, cycled:
	// between two uses of one sweep lie 511 others (32704 cells), far
	// more than a worker retains, so no cell is a result-cache hit.
	sweepTimedPool    = 512
	sweepLayerCells   = 24
	sweepHopPairs     = 32
	sweepCkptSweeps   = 6
	sweepJournalCalls = 200
)

func sweepBody(seed int64) ([]byte, error) {
	return json.Marshal(experiment.SweepRequest{
		Kind:  experiment.KindQAOA,
		Shots: 256,
		Seed:  seed,
		QAOA: &experiment.QAOASpec{
			Nodes: 4, Chords: 1, Colors: sweepColors, Layers: 2,
			Gammas: experiment.Axis{From: 0.2, To: 2.6, N: 8},
			Betas:  experiment.Axis{From: 0.2, To: 2.6, N: 8},
		},
	})
}

func sweepBodies(base int64, stream string, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		b, err := sweepBody(seedFor(base, stream, i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (w *sweepFleet) prepare(cfg config) error {
	var err error
	if w.stateDir, err = freshStateDir(cfg.stateRoot); err != nil {
		return err
	}
	w.seeds = seedFor(cfg.seed, "fleet-cells", 0)
	if w.warm, err = sweepBodies(cfg.seed, "fleet-warm", sweepWarm); err != nil {
		return err
	}
	if w.timed, err = sweepBodies(cfg.seed, "fleet-timed", sweepTimedPool); err != nil {
		return err
	}
	if w.ckpt, err = sweepBodies(cfg.seed, "fleet-ckpt", 2*sweepCkptSweeps); err != nil {
		return err
	}
	w.proc, err = core.NewCompactProcessor(nodeCavities, nodeModes, nodeSeed)
	return err
}

func (w *sweepFleet) clients() int { return 1 }

// freshStateDir removes the state directories earlier runs left under
// root and makes this run's. It then syncs the filesystem, so the
// writes and block discards the removal causes finish before set-up
// instead of landing on the fsyncs of the timed phase. This run's
// directory stays behind for the next run to remove.
func freshStateDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	old, err := filepath.Glob(filepath.Join(root, "state-*"))
	if err != nil {
		return "", err
	}
	for _, dir := range old {
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
	}
	syscall.Sync()
	return os.MkdirTemp(root, "state-")
}

// startDurable starts a fleet in a fresh subdirectory of the run's
// state directory, with the coordinator checkpoint when checkpoint is
// set.
func (w *sweepFleet) startDurable(checkpoint bool, hop *http.Client, tr *tracer) (*fleet, error) {
	dir, err := os.MkdirTemp(w.stateDir, "fleet-")
	if err != nil {
		return nil, err
	}
	ckpt := ""
	if checkpoint {
		ckpt = filepath.Join(dir, "coordinator.ckpt")
	}
	return startFleet(dir, ckpt, hop, tr)
}

func (w *sweepFleet) start(tr *tracer) (stack, error) {
	core.PlanCacheReset()
	var hop *http.Client
	if tr != nil {
		// The traced fleet's coordinator keeps copies of the cell jobs
		// it dispatches, for the layer timings.
		w.capture = &captureTransport{base: http.DefaultTransport, max: sweepHopPairs + sweepLayerCells}
		hop = &http.Client{Transport: w.capture, Timeout: 30 * time.Second}
	}
	f, err := w.startDurable(true, hop, tr)
	if err != nil {
		return nil, err
	}
	for i, body := range w.warm {
		if _, err := w.sweep(f, body); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up sweep %d: %w", i, err)
		}
	}
	return f, nil
}

func (w *sweepFleet) request(s stack, i int) (int, error) {
	f := s.(*fleet)
	body := w.timed[i%len(w.timed)]
	if f.c.tr != nil && f.c.tr.on.Load() {
		return sweepCells, w.tracedSweep(f, body)
	}
	_, err := w.sweep(f, body)
	return sweepCells, err
}

// sweep submits one sweep and waits for it with GET ?wait=1.
func (w *sweepFleet) sweep(f *fleet, body []byte) (time.Duration, error) {
	t0 := time.Now()
	id, err := submitSweep(f, body)
	if err != nil {
		return 0, err
	}
	status, raw, err := f.c.do("GET", f.srv.url+"/v1/sweeps/"+id+"?wait=1", nil)
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("sweep %s: status %d: %s", id, status, raw)
	}
	var view experiment.SweepView
	if err := json.Unmarshal(raw, &view); err != nil {
		return 0, err
	}
	return time.Since(t0), checkSweep(view)
}

func submitSweep(f *fleet, body []byte) (string, error) {
	status, raw, err := f.c.do("POST", f.srv.url+"/v1/sweeps", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("submitting sweep: status %d: %s", status, raw)
	}
	var view experiment.SweepView
	if err := json.Unmarshal(raw, &view); err != nil {
		return "", err
	}
	return view.ID, nil
}

// checkSweep requires every cell done and a QAOA aggregate that beats
// random coloring, whose expected ratio is 1-1/colors.
func checkSweep(v experiment.SweepView) error {
	switch {
	case v.State != experiment.SweepCompleted:
		return fmt.Errorf("sweep %s ended %s", v.ID, v.State)
	case v.DoneCells != sweepCells || v.FailedCells != 0 || v.CancelledCells != 0:
		return fmt.Errorf("sweep %s: %d done, %d failed, %d cancelled of %d cells",
			v.ID, v.DoneCells, v.FailedCells, v.CancelledCells, sweepCells)
	case v.AggregateError != "" || v.Aggregate == nil || v.Aggregate.QAOA == nil:
		return fmt.Errorf("sweep %s has no aggregate: %s", v.ID, v.AggregateError)
	case v.Aggregate.QAOA.BestRatio <= 1-1.0/sweepColors:
		return fmt.Errorf("sweep %s: best ratio %.3f does not beat random coloring", v.ID, v.Aggregate.QAOA.BestRatio)
	}
	return nil
}

// tracedSweep submits one sweep and follows its SSE stream, timing the
// submit round trip and the gap from the last cell event to the
// completed event. It also accounts the journal bytes the sweep wrote.
func (w *sweepFleet) tracedSweep(f *fleet, body []byte) error {
	_, c0, b0 := f.journalTotals()
	t0 := time.Now()
	id, err := submitSweep(f, body)
	if err != nil {
		return err
	}
	submit := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := f.c.stream(ctx, f.srv.url+"/v1/sweeps/"+id+"/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var lastCell time.Time
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev experiment.SweepEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		if ev.Type == experiment.EventCell {
			lastCell = time.Now()
			continue
		}
		if ev.Type != experiment.EventSweep || ev.State == experiment.SweepRunning {
			continue
		}
		agg := time.Since(lastCell)
		if ev.Sweep == nil {
			return fmt.Errorf("sweep %s: terminal event without a view", id)
		}
		if err := checkSweep(*ev.Sweep); err != nil {
			return err
		}
		_, c1, b1 := f.journalTotals()
		w.mu.Lock()
		w.submitMS = append(w.submitMS, ms(submit))
		w.aggregateMS = append(w.aggregateMS, ms(agg))
		if c1 == c0 {
			w.walBytes += b1 - b0
			w.walJobs += sweepCells
		}
		w.mu.Unlock()
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("sweep %s: event stream ended before completion", id)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// journalTotals sums appends, compactions and WAL bytes over the
// fleet's journals without any HTTP.
func (f *fleet) journalTotals() (appends, compactions, walBytes int64) {
	js := []*journal.Journal{f.sweeps}
	for _, n := range f.workers {
		js = append(js, n.jobs, n.sweeps)
	}
	for _, j := range js {
		s := j.Stats()
		appends += s.Appends
		compactions += s.Compactions
		walBytes += s.WALBytes
	}
	return appends, compactions, walBytes
}

func (w *sweepFleet) verify() error { return nil }

// freshCells returns the captured cell jobs from index from, each
// with a seed no run has used, so no cache answers them.
func (w *sweepFleet) freshCells(from, n int) ([][]byte, []serve.JobRequest, error) {
	w.capture.mu.Lock()
	captured := w.capture.bodies
	w.capture.mu.Unlock()
	if len(captured) < from+n {
		return nil, nil, fmt.Errorf("captured %d cell jobs, need %d", len(captured), from+n)
	}
	var bodies [][]byte
	var reqs []serve.JobRequest
	for i, raw := range captured[from : from+n] {
		var req serve.JobRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, nil, err
		}
		seed := core.DeriveSeed(w.seeds, fmt.Sprint(from+i))
		req.Seed = &seed
		b, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		bodies, reqs = append(bodies, b), append(reqs, req)
	}
	return bodies, reqs, nil
}

func (w *sweepFleet) layers(s stack, ph phaseResult) (map[string]float64, error) {
	f := s.(*fleet)
	out := map[string]float64{}
	cells, _, err := w.freshCells(0, sweepLayerCells)
	if err != nil {
		return nil, err
	}
	if out["serve.decode_us"], err = decodeMicros(w.proc, cells); err != nil {
		return nil, err
	}
	if out["transpile.run_us"], out["core.execute_ms"], out["serve.encode_us"], err = executeLayers(w.proc, cells); err != nil {
		return nil, err
	}
	ct, err := circuitLayers(w.proc, cells[:4], 256)
	if err != nil {
		return nil, err
	}
	fillCircuit(ct, out)
	serveCounterLayers(ph, out)

	// Journal counters over the traced phase. Appends are exact; bytes
	// come from the traced sweeps no compaction interrupted.
	appends := ph.after.journalAppends - ph.before.journalAppends
	out["journal.appends_per_job"] = ratio(float64(appends), float64(ph.jobs))
	out["journal.wal_bytes_per_job"] = ratio(float64(w.walBytes), float64(w.walJobs))
	recordBytes := ratio(out["journal.wal_bytes_per_job"], out["journal.appends_per_job"])
	if out["journal.append_us"], err = w.appendMicros(int(recordBytes)); err != nil {
		return nil, err
	}

	runJobMS, hopMS, err := w.hop(f)
	if err != nil {
		return nil, err
	}
	out["cluster.hop_ms"] = hopMS
	if out["cluster.checkpoint_ms_per_job"], err = w.checkpointCost(f); err != nil {
		return nil, err
	}
	out["cluster.spills"] = float64(ph.after.spills - ph.before.spills)
	out["cluster.requeued"] = float64(ph.after.requeued - ph.before.requeued)
	out["experiment.submit_ms"] = median(w.submitMS)
	out["experiment.aggregate_ms"] = median(w.aggregateMS)
	// A sweep is its submit, its cells two at a time, each a
	// coordinator RunJob, and the aggregation.
	perSweep := out["experiment.submit_ms"] + sweepCells/sweepParallel*runJobMS + out["experiment.aggregate_ms"]
	out["trace.layer_share"] = ratio(perSweep, quantile(ph.latencies(), 0.5))
	return out, nil
}

// appendMicros is the median Journal.Append time of a record of the
// given framed size, on the filesystem holding the fleet's journals.
func (w *sweepFleet) appendMicros(recordBytes int) (float64, error) {
	dir, err := os.MkdirTemp(w.stateDir, "append-")
	if err != nil {
		return 0, err
	}
	j, _, err := journal.Open(dir, "probe")
	if err != nil {
		return 0, err
	}
	defer j.Close()
	payload := bytes.Repeat([]byte{'x'}, max(recordBytes-9, 1)) // 9 bytes of record framing
	return timeMedian(sweepJournalCalls, func(int) error { return j.Append(1, payload) })
}

// hop is the coordinator's dispatch overhead per cell: the median
// Coordinator.RunJob time minus the median time of the same kind of
// cell POSTed straight to a worker, each on a fresh seed.
func (w *sweepFleet) hop(f *fleet) (runJobMS, hopMS float64, err error) {
	_, coordReqs, err := w.freshCells(sweepLayerCells, sweepHopPairs)
	if err != nil {
		return 0, 0, err
	}
	// Distinct seeds for the direct leg, so neither leg is a cache hit.
	direct := make([][]byte, len(coordReqs))
	for i, req := range coordReqs {
		seed := *req.Seed + 1
		req.Seed = &seed
		if direct[i], err = json.Marshal(req); err != nil {
			return 0, 0, err
		}
	}
	var rj, dj []float64
	for i := range coordReqs {
		t0 := time.Now()
		view, err := f.coord.RunJob(context.Background(), nil, coordReqs[i])
		if err != nil {
			return 0, 0, err
		}
		if view.State != "done" {
			return 0, 0, fmt.Errorf("cell job %s: %s", view.State, view.Error)
		}
		rj = append(rj, ms(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := postJob(f.c, f.workers[i%len(f.workers)].srv.url, direct[i]); err != nil {
			return 0, 0, err
		}
		dj = append(dj, ms(time.Since(t0)))
	}
	return median(rj), median(rj) - median(dj), nil
}

// checkpointCost runs sweeps alternately on the traced fleet and on a
// second fleet without the coordinator checkpoint, and returns the
// median sweep-time difference per cell.
func (w *sweepFleet) checkpointCost(with *fleet) (float64, error) {
	without, err := w.startDurable(false, nil, nil)
	if err != nil {
		return 0, err
	}
	defer without.close()
	var on, off []float64
	for i := 0; i < sweepCkptSweeps; i++ {
		d, err := w.sweep(with, w.ckpt[2*i])
		if err != nil {
			return 0, err
		}
		on = append(on, ms(d))
		if d, err = w.sweep(without, w.ckpt[2*i+1]); err != nil {
			return 0, err
		}
		off = append(off, ms(d))
	}
	return (median(on) - median(off)) / sweepCells, nil
}

// captureTransport keeps copies of the first max job bodies the
// coordinator POSTs to workers.
type captureTransport struct {
	base   http.RoundTripper
	max    int
	mu     sync.Mutex
	bodies [][]byte
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs") && r.Body != nil {
		c.mu.Lock()
		want := len(c.bodies) < c.max
		c.mu.Unlock()
		if want {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				return nil, err
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			c.mu.Lock()
			c.bodies = append(c.bodies, body)
			c.mu.Unlock()
		}
	}
	return c.base.RoundTrip(r)
}
