package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	attempted int
	failed    int
	jobs      int
	elapsed   time.Duration
	cpu       time.Duration
	// wins holds the phase's settled requests in windows, in order.
	wins   []window
	before counterSnap
	after  counterSnap
	// depthMax and depthMin are the mean deepest and shallowest shard
	// depths over the samples taken while tracing.
	depthMax, depthMin float64
}

// windowLen is the least length of a window of a phase.
const windowLen = 500 * time.Millisecond

// window is a run of consecutive settled requests. A full window is
// closed by the first request to settle at least windowLen after the
// window opened, before the phase's deadline; the last window of a
// phase, which holds the requests that settled after it, is not full.
type window struct {
	requests, jobs int
	elapsed, cpu   time.Duration
	// latencies holds submit→settled times in milliseconds.
	latencies []float64
	full      bool
}

func (w window) jobsPerSecond() float64 { return float64(w.jobs) / w.elapsed.Seconds() }

func (p phaseResult) jobsPerSecond() float64 { return float64(p.jobs) / p.elapsed.Seconds() }

// latencies returns every settled request's latency in milliseconds.
func (p phaseResult) latencies() []float64 {
	var out []float64
	for _, w := range p.wins {
		out = append(out, w.latencies...)
	}
	return out
}

// merge combines two phases of one kind: counts, times and windows
// add up, and counter deltas add up across both intervals.
func (p phaseResult) merge(q phaseResult) phaseResult {
	out := p
	out.attempted += q.attempted
	out.failed += q.failed
	out.jobs += q.jobs
	out.elapsed += q.elapsed
	out.cpu += q.cpu
	out.wins = append(append([]window(nil), p.wins...), q.wins...)
	out.before = p.before
	out.after = p.after.plus(q.after.minus(q.before))
	out.depthMax = (p.depthMax + q.depthMax) / 2
	out.depthMin = (p.depthMin + q.depthMin) / 2
	return out
}

func (p phaseResult) cpuMSPerJob() float64 {
	return float64(p.cpu) / float64(time.Millisecond) / float64(p.jobs)
}

// slowest merges the phase's full windows with the lowest job rate,
// slowest first, until they cover at least share of the full windows
// and hold at least minRequests requests. The result's counts, times
// and latencies are those of the chosen windows.
//
// The host this benchmark was built on changes the speed of its cores
// by up to 2x within seconds, with no change to the work (README.md).
// Its slow state is the steadier one and nearly every run spends some
// of its length in it, so the slowest windows of a run repeat from run
// to run where the whole run's average follows the host.
func (p phaseResult) slowest(share float64, minRequests int) phaseResult {
	var full []window
	for _, w := range p.wins {
		if w.full {
			full = append(full, w)
		}
	}
	sort.SliceStable(full, func(i, j int) bool { return full[i].jobsPerSecond() < full[j].jobsPerSecond() })
	var out phaseResult
	for i, w := range full {
		if float64(i) >= share*float64(len(full)) && out.attempted >= minRequests {
			break
		}
		out.attempted += w.requests
		out.jobs += w.jobs
		out.elapsed += w.elapsed
		out.cpu += w.cpu
		out.wins = append(out.wins, w)
	}
	return out
}

// drive runs w's closed-loop clients against st for d: each client
// sends its next request only when the previous one has settled, and
// stops sending once d has passed. Request numbers start at first and
// are handed out in order across clients. With tr non-nil the phase is
// traced: spans are recorded and shard depths sampled.
func drive(w workload, st stack, first int, d time.Duration, tr *tracer) phaseResult {
	res := phaseResult{before: st.counters()}
	var (
		next   atomic.Int64
		mu     sync.Mutex // guards cur, opened, openCPU and res.wins
		wg     sync.WaitGroup
		failed atomic.Int64
		jobs   atomic.Int64
	)
	next.Store(int64(first))
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	if tr != nil {
		tr.on.Store(true)
		go func() {
			defer close(samplerDone)
			res.depthMax, res.depthMin = sampleDepths(st, stopSampling)
		}()
	} else {
		close(samplerDone)
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var (
		cur     window
		opened  time.Duration // since start
		openCPU = cpu0
	)
	settle := func(n int, ms float64) {
		at := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		cur.requests++
		cur.jobs += n
		cur.latencies = append(cur.latencies, ms)
		if at < d && at-opened >= windowLen {
			c := cpuTime()
			cur.elapsed, cur.cpu, cur.full = at-opened, c-openCPU, true
			res.wins = append(res.wins, cur)
			cur, opened, openCPU = window{}, at, c
		}
	}
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				n, err := w.request(st, i)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					if failed.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
					}
					continue
				}
				jobs.Add(int64(n))
				settle(n, ms)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if cur.requests > 0 {
		cur.elapsed, cur.cpu = res.elapsed-opened, cpu0+res.cpu-openCPU
		res.wins = append(res.wins, cur)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	close(stopSampling)
	<-samplerDone
	res.after = st.counters()
	res.attempted = int(next.Load()) - first
	res.failed = int(failed.Load())
	res.jobs = int(jobs.Load())
	return res
}

// sampleDepths polls the stack's shard depths every 10ms until stop is
// closed and returns the mean deepest and shallowest shard.
func sampleDepths(st stack, stop <-chan struct{}) (maxMean, minMean float64) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var n int
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0, 0
			}
			return maxMean / float64(n), minMean / float64(n)
		case <-tick.C:
			depths := st.depths()
			if len(depths) == 0 {
				continue
			}
			lo, hi := depths[0], depths[0]
			for _, d := range depths[1:] {
				lo, hi = min(lo, d), max(hi, d)
			}
			maxMean += float64(hi)
			minMean += float64(lo)
			n++
		}
	}
}

// counterSnap is one sample of the layers' Stats counters, summed over
// the stack's nodes.
type counterSnap struct {
	cacheHits, cacheMisses, cacheEvictions uint64
	planHits, planMisses                   uint64
	journalAppends                         int64
	spills, requeued                       uint64
}

func (s counterSnap) plus(d counterSnap) counterSnap {
	return counterSnap{
		cacheHits: s.cacheHits + d.cacheHits, cacheMisses: s.cacheMisses + d.cacheMisses,
		cacheEvictions: s.cacheEvictions + d.cacheEvictions,
		planHits:       s.planHits + d.planHits, planMisses: s.planMisses + d.planMisses,
		journalAppends: s.journalAppends + d.journalAppends,
		spills:         s.spills + d.spills, requeued: s.requeued + d.requeued,
	}
}

func (s counterSnap) minus(d counterSnap) counterSnap {
	return counterSnap{
		cacheHits: s.cacheHits - d.cacheHits, cacheMisses: s.cacheMisses - d.cacheMisses,
		cacheEvictions: s.cacheEvictions - d.cacheEvictions,
		planHits:       s.planHits - d.planHits, planMisses: s.planMisses - d.planMisses,
		journalAppends: s.journalAppends - d.journalAppends,
		spills:         s.spills - d.spills, requeued: s.requeued - d.requeued,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU is the runtime's estimate of CPU time spent in garbage
// collection so far.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; it sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeMedian calls fn n times and returns the median duration in
// microseconds.
func timeMedian(n int, fn func(i int) error) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(samples), nil
}

// client is the benchmark's HTTP client: at most two connections to
// any host, matching the two client goroutines.
type client struct {
	http *http.Client
	tr   *tracer
}

func newClient(tr *tracer) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
// While tracing, the request carries a span ID the server side
// records under the same ID.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	id, t0 := c.tr.begin(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(id, "client", t0)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// stream opens a GET whose body the caller reads incrementally (SSE).
func (c *client) stream(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp, nil
}

// server is one HTTP listener on loopback.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

// listen serves h on an ephemeral loopback port; a non-nil tracer
// wraps h so traced phases record server-side spans.
func listen(h http.Handler, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		h = tr.wrap(h)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// shutdown stops accepting, waits for in-flight requests and for the
// serve goroutine to exit.
func (s *server) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// span is one timed interval at a layer boundary. Spans of one
// front-door request share an ID.
type span struct {
	id    uint64
	layer string
	dur   time.Duration
}

// tracer keeps spans in memory while on is set. A nil *tracer records
// nothing, so untraced runs pay no tracing cost.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

const spanHeader = "X-Perfbench-Span"

func (t *tracer) begin(req *http.Request) (uint64, time.Time) {
	if t == nil || !t.on.Load() {
		return 0, time.Time{}
	}
	id := t.nextID.Add(1)
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	return id, time.Now()
}

func (t *tracer) end(id uint64, layer string, t0 time.Time) {
	if id == 0 {
		return
	}
	t.record(span{id: id, layer: layer, dur: time.Since(t0)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a "server" span for every request that carries a span
// ID while tracing is on.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.end(id, "server", t0)
	})
}

// clientOverheadMicros is the median, over traced front-door requests,
// of client span minus server span: loopback HTTP plus the client's
// own encode and decode.
func (t *tracer) clientOverheadMicros() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := map[uint64]time.Duration{}
	server := map[uint64]time.Duration{}
	for _, s := range t.spans {
		switch s.layer {
		case "client":
			client[s.id] = s.dur
		case "server":
			server[s.id] = s.dur
		}
	}
	var diffs []float64
	for id, c := range client {
		if sv, ok := server[id]; ok {
			diffs = append(diffs, float64(c-sv)/float64(time.Microsecond))
		}
	}
	return median(diffs)
}
