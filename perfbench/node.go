package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"quditkit/internal/cluster"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/journal"
	"quditkit/internal/serve"
)

// The daemon's default device and seed (quditd -cavities 2 -modes 2
// -seed 1), and -retain 256: settled-job retention fills within
// seconds on every workload, so peak memory measures the steady state
// rather than how many jobs a run managed to settle.
const (
	nodeCavities = 2
	nodeModes    = 2
	nodeSeed     = 1
	nodeRetain   = 256
)

// node is one standalone or worker quditd node: processor, job
// service, sweep manager and HTTP surface, assembled as quditd's
// runNode assembles them.
type node struct {
	proc   *core.Processor
	svc    *serve.Service
	mgr    *experiment.Manager
	srv    *server
	agent  *cluster.Agent
	jobs   *journal.Journal
	sweeps *journal.Journal
}

// startNode starts a node. A non-empty journalDir journals jobs and
// sweeps there; a non-empty coordinator URL registers the node as a
// worker through cluster.StartAgent.
func startNode(journalDir, coordinator string, tr *tracer) (*node, error) {
	n := &node{}
	var err error
	if journalDir != "" {
		if n.jobs, _, err = journal.Open(journalDir, "jobs"); err != nil {
			return nil, fmt.Errorf("opening job journal: %w", err)
		}
		if n.sweeps, _, err = journal.Open(journalDir, "sweeps"); err != nil {
			n.jobs.Close()
			return nil, fmt.Errorf("opening sweep journal: %w", err)
		}
	}
	if n.proc, err = core.NewCompactProcessor(nodeCavities, nodeModes, nodeSeed); err != nil {
		n.closeJournals()
		return nil, err
	}
	if n.svc, err = serve.New(n.proc, serve.Config{RetainJobs: nodeRetain, Journal: n.jobs}); err != nil {
		n.closeJournals()
		return nil, err
	}
	if n.mgr, err = experiment.NewManager(experiment.ServeRunner{Service: n.svc}, experiment.Config{Journal: n.sweeps}); err != nil {
		n.svc.Close()
		n.closeJournals()
		return nil, err
	}
	if n.srv, err = listen(experiment.NewHandler(n.mgr, serve.NewHandler(n.svc)), tr); err != nil {
		n.mgr.Close()
		n.svc.Close()
		n.closeJournals()
		return nil, err
	}
	if coordinator != "" {
		n.agent, err = cluster.StartAgent(cluster.AgentConfig{
			CoordinatorURL: coordinator,
			ID:             n.srv.url,
			AdvertiseURL:   n.srv.url,
		})
		if err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

// close shuts the node down in quditd's order: deregister and drain,
// cancel sweeps, stop the listener, drain the queue, close journals.
func (n *node) close() {
	if n.agent != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = n.agent.Drain(ctx) // best effort: the fleet is being torn down
		cancel()
	}
	n.mgr.Close()
	n.srv.shutdown()
	n.svc.Close()
	n.closeJournals()
}

func (n *node) closeJournals() {
	if n.sweeps != nil {
		n.sweeps.Close()
	}
	if n.jobs != nil {
		n.jobs.Close()
	}
}

// addCounters adds this node's Stats counters to s.
func (n *node) addCounters(s *counterSnap) {
	st := n.svc.Stats()
	s.cacheHits += st.CacheHits
	s.cacheMisses += st.CacheMisses
	s.cacheEvictions += st.CacheEvictions
	s.planHits, s.planMisses = st.PlanCacheHits, st.PlanCacheMisses // process-wide
}

// standalone is a one-node stack.
type standalone struct {
	*node
	c *client
}

func startStandalone(tr *tracer) (*standalone, error) {
	n, err := startNode("", "", tr)
	if err != nil {
		return nil, err
	}
	return &standalone{node: n, c: newClient(tr)}, nil
}

func (s *standalone) close() {
	s.c.close()
	s.node.close()
}

func (s *standalone) counters() counterSnap {
	var snap counterSnap
	s.addCounters(&snap)
	return snap
}

func (s *standalone) depths() []int { return s.svc.Stats().ShardDepths }

// fleet is a coordinator with two journaled workers, assembled as
// quditd's runCoordinator and runNode assemble them.
type fleet struct {
	proc    *core.Processor
	coord   *cluster.Coordinator
	mgr     *experiment.Manager
	sweeps  *journal.Journal
	srv     *server
	workers []*node
	c       *client
}

// startFleet starts the coordinator (with checkpointPath when
// non-empty, and a sweep journal) and two workers with job journals,
// all under dir. hopClient, when non-nil, carries the coordinator's
// traffic to workers.
func startFleet(dir, checkpointPath string, hopClient *http.Client, tr *tracer) (*fleet, error) {
	f := &fleet{c: newClient(tr)}
	var err error
	if f.sweeps, _, err = journal.Open(dir, "sweeps"); err != nil {
		return nil, fmt.Errorf("opening coordinator sweep journal: %w", err)
	}
	if f.proc, err = core.NewCompactProcessor(nodeCavities, nodeModes, nodeSeed); err != nil {
		f.sweeps.Close()
		return nil, err
	}
	f.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Proc:           f.proc,
		RetainJobs:     nodeRetain,
		CheckpointPath: checkpointPath,
		Client:         hopClient,
	})
	if err != nil {
		f.sweeps.Close()
		return nil, err
	}
	if f.mgr, err = experiment.NewManager(f.coord, experiment.Config{Parallel: sweepParallel, Journal: f.sweeps}); err != nil {
		f.coord.Close()
		f.sweeps.Close()
		return nil, err
	}
	if f.srv, err = listen(experiment.NewHandler(f.mgr, cluster.Handler(f.coord)), tr); err != nil {
		f.mgr.Close()
		f.coord.Close()
		f.sweeps.Close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		wdir, err := os.MkdirTemp(dir, fmt.Sprintf("worker%d-", i))
		if err != nil {
			f.close()
			return nil, err
		}
		w, err := startNode(wdir, f.srv.url, tr)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting worker %d: %w", i, err)
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// close stops the workers first (they drain through the coordinator),
// then the coordinator in quditd's order.
func (f *fleet) close() {
	f.c.close()
	for _, w := range f.workers {
		w.close()
	}
	f.mgr.Close()
	f.srv.shutdown()
	f.coord.Close()
	f.sweeps.Close()
}

func (f *fleet) counters() counterSnap {
	var snap counterSnap
	for _, w := range f.workers {
		w.addCounters(&snap)
	}
	snap.journalAppends, _, _ = f.journalTotals()
	cs := f.coord.Stats() // scrapes the workers over HTTP
	snap.spills, snap.requeued = cs.Spills, cs.Requeued
	return snap
}

func (f *fleet) depths() []int {
	var out []int
	for _, w := range f.workers {
		out = append(out, w.svc.Stats().ShardDepths...)
	}
	return out
}
