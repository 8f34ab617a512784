package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/farm"
)

// Options configures a Coordinator.
type Options struct {
	// Addrs are the worker endpoints ("host:port" or full base URLs) known
	// at construction. At least one is required unless Dynamic is set —
	// a dynamic coordinator may start with an empty fleet and acquire
	// workers through Register (queued work waits for the first one).
	Addrs []string
	// Dynamic permits an empty initial fleet; registration (the control
	// Handler or the Register method) grows it at runtime.
	Dynamic bool
	// Store holds the coordinator's merged measurements; nil means a fresh
	// in-memory store. Workers may keep their own journaled stores, which
	// the coordinator pulls and merges into this one on Checkpoint.
	Store *farm.Store
	// MaxInFlight is the slot budget assumed for workers that did not
	// advertise one (the statically-configured Addrs; 0 = 2). Workers that
	// register advertise their own capacity and get a budget proportional
	// to it.
	MaxInFlight int
	// PullTimeout bounds one round of worker store-delta pulls during
	// Checkpoint and Close (0 = 2s).
	PullTimeout time.Duration
	// LeaseTimeout is the longest silence tolerated on a group's result
	// stream before the lease expires and the group is requeued (0 = 15s).
	// Workers heartbeat well under this.
	LeaseTimeout time.Duration
	// HedgeMin floors the straggler-hedging delay: a group is re-leased to
	// a second worker once it runs past ~p95 of completed group latencies,
	// but never sooner than this (0 = 2s; negative disables hedging).
	HedgeMin time.Duration
	// MaxAttempts bounds failed leases per group before the group's
	// callers see the lease error (0 = 3).
	MaxAttempts int
	// Client performs the HTTP calls; nil means a dedicated client with
	// no overall request timeout (the lease timeout bounds streams).
	Client *http.Client
	// Log receives dispatch and recovery lines; nil silences them.
	Log io.Writer
}

// Coordinator is a farm.Backend whose executor is a lease scheduler over
// remote workers: the embedded farm.Planner looks up, deduplicates, groups
// and completes exactly as it does in front of the in-process pool, and the
// coordinator adds only what placing a group on a worker takes — capacity-
// weighted placement, lease expiry and requeue, straggler hedging and the
// pull of worker store deltas. Callers cannot tell it apart from a local
// farm except by throughput.
type Coordinator struct {
	*farm.Planner
	opts        Options
	client      *http.Client
	lease       time.Duration
	hedgeMin    time.Duration
	maxAttempts int
	cap         int

	pull time.Duration

	// mu is the dispatch lock. It is never held across a call that
	// completes a group: completion journals, and may sleep between retries.
	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*dispatchReq
	workers      []*workerRef
	leases       int // leases not yet fully unwound, completion included
	leaseSeq     int64
	leaseCancels map[int64]context.CancelFunc
	draining     bool
	closed       bool
	schedDone    chan struct{}

	// Dispatch-layer counters, guarded by the planner's stats lock (Count).
	// perWorker is indexed like workers and append-only: registration grows
	// it (under both locks), removal never shrinks it, so a worker's history
	// survives its departure. Only Jobs, Busy, Groups and LocalHits are kept
	// here; Stats takes the fleet view (address, slots, in-flight) from workers.
	disp      farm.DispatchStats
	perWorker []farm.WorkerStats
	// latencies of recently completed group leases (seconds), the input to
	// the p95 hedging threshold.
	latencies []float64
}

// cgroup is one planned group on the dispatch plane, the unit of lease. The
// dispatch fields are guarded by Coordinator.mu.
type cgroup struct {
	*farm.Group

	attempts   int // failed leases so far
	leases     int // leases currently on the wire for this group
	leaseSeqs  map[int64]struct{}
	onWorkers  map[int]int // active leases per worker index; hedges must land elsewhere
	hedged     bool
	done       bool // settled: an outcome is on its way to the planner
	lastWorker int
	finished   chan struct{} // closed when done flips true
}

// dispatchReq is one queue entry: lease this group (again) somewhere.
type dispatchReq struct {
	g     *cgroup
	hedge bool
}

// workerRef is the coordinator's view of one worker process. The worker
// slice is append-only — indices are baked into leases and the stat arrays,
// so a departing worker is flagged removed rather than deleted, and a
// returning address reclaims its old entry.
type workerRef struct {
	addr string
	base string // normalized base URL
	// guarded by Coordinator.mu:
	inflight int
	slots    int // lease budget; registered workers advertise their capacity
	live     bool
	removed  bool // deregistered: no new leases, in-flight leases complete
	// store-delta pull progress: how far into the worker's journaled store
	// (identified by its boot ID) the coordinator has merged.
	storeCursor int
	storeBoot   string
}

var errClosed = errors.New("dist: coordinator closed")

// New starts a coordinator over the given workers. It performs no network
// IO — workers are contacted lazily on first dispatch, so a worker that is
// still starting up costs a retry, not a construction failure.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Addrs) == 0 && !opts.Dynamic {
		return nil, errors.New("dist: no worker addresses")
	}
	c := &Coordinator{
		opts:         opts,
		client:       opts.Client,
		lease:        opts.LeaseTimeout,
		hedgeMin:     opts.HedgeMin,
		maxAttempts:  opts.MaxAttempts,
		cap:          opts.MaxInFlight,
		leaseCancels: map[int64]context.CancelFunc{},
		schedDone:    make(chan struct{}),
	}
	c.Planner = farm.NewPlanner(farm.Options{Store: opts.Store, Log: opts.Log}, true, c.execute)
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.lease <= 0 {
		c.lease = 15 * time.Second
	}
	if c.hedgeMin == 0 {
		c.hedgeMin = 2 * time.Second
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 3
	}
	if c.cap <= 0 {
		c.cap = 2
	}
	c.pull = opts.PullTimeout
	if c.pull <= 0 {
		c.pull = 2 * time.Second
	}
	// Static addresses did not advertise a capacity; they get the uniform
	// MaxInFlight budget, which is exactly the pre-elastic behavior.
	for _, addr := range opts.Addrs {
		c.workers = append(c.workers, &workerRef{addr: addr, base: baseURL(addr), live: true, slots: c.cap})
	}
	c.perWorker = make([]farm.WorkerStats, len(c.workers))
	c.cond = sync.NewCond(&c.mu)
	go c.scheduler()
	return c, nil
}

// Register adds a worker to the fleet mid-run (or refreshes one that
// deregistered: the address reclaims its entry and history). slots is the
// worker's advertised capacity — its lease budget for capacity-weighted
// placement; 0 means the coordinator's MaxInFlight default. The worker
// starts receiving leases immediately. Returns the active fleet size.
func (c *Coordinator) Register(addr string, slots int) (int, error) {
	if slots <= 0 {
		slots = c.cap
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	found := false
	for _, w := range c.workers {
		if w.addr == addr {
			w.slots = slots
			w.removed = false
			w.live = true
			found = true
			break
		}
	}
	if !found {
		c.workers = append(c.workers, &workerRef{addr: addr, base: baseURL(addr), live: true, slots: slots})
		c.Count(func() { c.perWorker = append(c.perWorker, farm.WorkerStats{}) })
	}
	n := c.fleetSizeLocked()
	c.mu.Unlock()
	c.cond.Broadcast() // queued work may now be dispatchable
	c.logf("dist: registered worker %s (slots %d), fleet %d", addr, slots, n)
	return n, nil
}

// Deregister withdraws a worker gracefully: it gets no new leases, in-flight
// leases run to completion, and its store delta is pulled one last time in
// the background while the process is presumably still up. (A worker that
// dies without deregistering is handled by lease expiry instead.) Returns
// the active fleet size; deregistering an unknown address is a no-op.
func (c *Coordinator) Deregister(addr string) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	pull := false
	for _, w := range c.workers {
		if w.addr == addr && !w.removed {
			w.removed = true
			pull = w.live
		}
	}
	n := c.fleetSizeLocked()
	c.mu.Unlock()
	c.logf("dist: deregistered worker %s, fleet %d", addr, n)
	if pull {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), c.pull)
			defer cancel()
			c.pullWorker(ctx, addr)
		}()
	}
	return n, nil
}

// fleetSizeLocked counts non-removed workers.
func (c *Coordinator) fleetSizeLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.removed {
			n++
		}
	}
	return n
}

// PullDeltas fetches every reachable fleet member's journaled store delta
// and merges it into the coordinator's store, last-write-wins. The merge is
// idempotent, so a lost cursor (worker reboot, coordinator restart) only
// costs a resend, never a wrong value. Per-worker failures are logged, not
// returned — a dead worker must not block a checkpoint.
func (c *Coordinator) PullDeltas(ctx context.Context) (added, conflicts int) {
	c.mu.Lock()
	var addrs []string
	for _, w := range c.workers {
		if !w.removed && w.live {
			addrs = append(addrs, w.addr)
		}
	}
	c.mu.Unlock()
	var (
		wg  sync.WaitGroup
		tmu sync.Mutex
	)
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			a, cf := c.pullWorker(ctx, addr)
			tmu.Lock()
			added += a
			conflicts += cf
			tmu.Unlock()
		}(addr)
	}
	wg.Wait()
	return added, conflicts
}

// pullWorker pulls one worker's store delta from the coordinator's cursor
// and merges it. The cursor and the worker's boot ID travel with the
// request; a worker that rebooted since the cursor was taken ignores the
// stale cursor and resends everything (Merge skips what the coordinator
// already holds).
func (c *Coordinator) pullWorker(ctx context.Context, addr string) (added, conflicts int) {
	c.mu.Lock()
	var w *workerRef
	for _, cand := range c.workers {
		if cand.addr == addr {
			w = cand
			break
		}
	}
	if w == nil {
		c.mu.Unlock()
		return 0, 0
	}
	base, cursor, boot := w.base, w.storeCursor, w.storeBoot
	c.mu.Unlock()

	u := fmt.Sprintf("%s/v1/store?cursor=%d&boot=%s", base, cursor, url.QueryEscape(boot))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		c.logf("dist: store pull from %s: %v", addr, err)
		return 0, 0
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.logf("dist: store pull from %s: %v", addr, err)
		return 0, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.logf("dist: store pull from %s: %s", addr, resp.Status)
		return 0, 0
	}
	var d StoreDelta
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		c.logf("dist: store pull from %s: %v", addr, err)
		return 0, 0
	}
	if len(d.Entries) > 0 {
		var merr error
		added, conflicts, merr = c.Store().Merge(d.Entries)
		if merr != nil {
			c.logf("dist: store merge from %s: %v", addr, merr)
			return 0, 0
		}
		c.Count(func() {
			c.disp.StoreMerges++
			c.disp.StoreMergeConflicts += int64(conflicts)
		})
	}
	c.mu.Lock()
	w.storeCursor, w.storeBoot = d.Next, d.Boot
	c.mu.Unlock()
	return added, conflicts
}

func baseURL(addr string) string {
	if len(addr) >= 7 && (addr[:7] == "http://" || (len(addr) >= 8 && addr[:8] == "https://")) {
		return addr
	}
	return "http://" + addr
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, format+"\n", args...)
	}
}

// Checkpoint pulls every reachable worker's store delta, merges it, and
// flushes the merged store to its durable checkpoint file — so a
// coordinator checkpoint subsumes the fleet's partitioned caches as of that
// instant, and coordinator state survives worker churn.
func (c *Coordinator) Checkpoint() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.pull)
	c.PullDeltas(ctx)
	cancel()
	return c.Store().Checkpoint()
}

// execute is the coordinator's executor: queue the planned groups for
// lease. The whole group goes to a single worker, so its points share one
// compile and one functional interpretation there.
func (c *Coordinator) execute(groups []*farm.Group) {
	c.mu.Lock()
	for _, g := range groups {
		c.queue = append(c.queue, &dispatchReq{g: &cgroup{
			Group:      g,
			lastWorker: -1,
			finished:   make(chan struct{}),
			leaseSeqs:  map[int64]struct{}{},
			onWorkers:  map[int]int{},
		}})
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Drain stops leasing new groups and waits for in-flight leases to finish,
// bounded by ctx. Leases still running when ctx expires are cancelled and
// their groups requeued (counted in GroupsRequeued); a subsequent Close
// fails their waiters and checkpoints everything the finished leases
// merged. Drain leaves the coordinator unable to start new leases — it is
// the first half of shutdown, not a pause.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.closed || c.draining {
		c.mu.Unlock()
		return nil
	}
	c.draining = true
	c.mu.Unlock()
	c.cond.Broadcast()

	drained := make(chan struct{})
	go func() {
		c.mu.Lock()
		for c.leases > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		n := len(c.leaseCancels)
		for _, cancel := range c.leaseCancels {
			cancel()
		}
		c.mu.Unlock()
		c.logf("dist: drain timeout, cancelling %d leases", n)
		<-drained
		return ctx.Err()
	}
}

// Close stops the scheduler, cancels outstanding leases, fails queued
// waiters and closes the store (flushing a final checkpoint when durable).
func (c *Coordinator) Close() error {
	if !c.Shut() {
		return nil
	}
	c.mu.Lock()
	c.closed = true
	for _, cancel := range c.leaseCancels {
		cancel()
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	<-c.schedDone

	// Leases unwind quickly once cancelled; wait so nothing touches the
	// store after it closes.
	c.mu.Lock()
	for c.leases > 0 {
		c.cond.Wait()
	}
	c.queue = nil
	c.mu.Unlock()
	// Whatever is still in flight was queued, or is waiting out a probe
	// delay; nothing will lease it now.
	c.Abandon()
	// Last chance to fold the fleet's partitioned caches into the durable
	// checkpoint; workers already gone were marked dead by their failed
	// leases and are skipped, so this costs at most one pull round.
	ctx, cancel := context.WithTimeout(context.Background(), c.pull)
	c.PullDeltas(ctx)
	cancel()
	return c.Store().Close()
}

// settleLocked marks the group as having its outcome: the first to settle
// (primary lease, hedge twin) wins, and a later finisher sees done and drops
// its copy. The caller delivers the outcome to the planner once it has
// released c.mu. Caller holds c.mu.
func (c *Coordinator) settleLocked(g *cgroup) {
	g.done = true
	close(g.finished)
	// Cancel the group's other outstanding leases (a losing hedge twin):
	// their workers stop measuring dead work.
	for seq := range g.leaseSeqs {
		if cancel, ok := c.leaseCancels[seq]; ok {
			cancel()
		}
	}
}

// Stats snapshots the coordinator's counters, in the same shape the
// in-process farm reports so /metrics and the harness log work unchanged:
// the planner's layer plus the dispatch plane's. The fleet view (membership,
// slots, in-flight) is captured under mu and the counters under one
// acquisition of the stats lock, so each group of fields is internally
// tear-free. Workers counts every worker ever seen (the PerWorker slice
// keeps departed workers, flagged Removed, so their history survives).
func (c *Coordinator) Stats() farm.Stats {
	c.mu.Lock()
	fleet := make([]farm.WorkerStats, len(c.workers))
	live := int64(0)
	for i, w := range c.workers {
		fleet[i] = farm.WorkerStats{Addr: w.addr, Slots: int64(w.slots), InFlight: int64(w.inflight), Removed: w.removed}
		if w.live && !w.removed {
			live++
		}
	}
	c.mu.Unlock()

	// Registration grows perWorker while holding both locks, so it is at
	// least as long as the fleet snapshot above.
	return c.Snapshot(func(st *farm.Stats) {
		st.Workers = len(fleet)
		st.DispatchStats = c.disp
		st.WorkersLive = live
		for i := range fleet {
			pw := c.perWorker[i]
			fleet[i].Jobs, fleet[i].Busy, fleet[i].Groups, fleet[i].LocalHits = pw.Jobs, pw.Busy, pw.Groups, pw.LocalHits
		}
		st.PerWorker = fleet
	})
}

// Interface assertions: the coordinator is a drop-in measurement backend.
var (
	_ farm.Backend = (*Coordinator)(nil)
	_ farm.Drainer = (*Coordinator)(nil)
)
