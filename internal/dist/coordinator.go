package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
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
	// LeaseTimeout is the longest silence tolerated on a group's result
	// stream before the lease expires and the group is requeued (0 = 15s).
	// Workers heartbeat well under this.
	LeaseTimeout time.Duration
	// Client performs the HTTP calls; nil means a dedicated client with
	// no overall request timeout (the lease timeout bounds streams).
	Client *http.Client
	// Log receives dispatch and recovery lines; nil silences them.
	Log io.Writer
}

const (
	// maxAttempts bounds failed leases per group before the group's callers
	// see the lease error.
	maxAttempts = 3
	// pullTimeout bounds one round of worker store pulls during Checkpoint
	// and Close.
	pullTimeout = 2 * time.Second
)

// Coordinator is a farm.Backend whose executor is a lease scheduler over
// remote workers: the embedded farm.Planner looks up, deduplicates, groups
// and completes exactly as it does in front of the in-process pool, and the
// coordinator adds only what placing a group on a worker takes — capacity-
// weighted placement, lease expiry and requeue, and the pull of worker
// stores. A group is on at most one lease at a time. Callers cannot tell it
// apart from a local farm except by throughput.
type Coordinator struct {
	*farm.Planner
	opts   Options
	client *http.Client
	lease  time.Duration

	// mu is the dispatch lock. It is never held across a call that
	// completes a group: completion journals, and may sleep between retries.
	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*cgroup
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
}

// cgroup is one planned group on the dispatch plane, the unit of lease: at
// any moment it is queued or on one lease. The dispatch fields are guarded
// by Coordinator.mu.
type cgroup struct {
	*farm.Group

	attempts   int // failed leases so far
	lastWorker int
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
	slots    int // lease budget: 1 until the worker states its own on a lease
	live     bool
	removed  bool // deregistered: no new leases, in-flight leases complete
	// probeAfter is when a suspect worker whose probe failed may take a
	// lease again (probeDelay).
	probeAfter time.Time
}

var errClosed = errors.New("dist: coordinator closed")

// New starts a coordinator over the given workers, each joining through
// Register. It performs no network IO — workers are contacted
// lazily on first dispatch, so a worker that is still starting up costs a
// retry, not a construction failure.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Addrs) == 0 && !opts.Dynamic {
		return nil, errors.New("dist: no worker addresses")
	}
	c := &Coordinator{
		opts:         opts,
		client:       opts.Client,
		lease:        opts.LeaseTimeout,
		leaseCancels: map[int64]context.CancelFunc{},
		schedDone:    make(chan struct{}),
	}
	c.Planner = farm.NewPlanner(farm.Options{Store: opts.Store, Log: opts.Log}, c.execute)
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.lease <= 0 {
		c.lease = 15 * time.Second
	}
	c.cond = sync.NewCond(&c.mu)
	for _, addr := range opts.Addrs {
		c.Register(addr) // fails only once closed
	}
	go c.scheduler()
	return c, nil
}

// Register adds a worker to the fleet mid-run (or refreshes one that
// deregistered: the address reclaims its entry, history and last stated
// budget). The worker starts receiving leases immediately: a new one a
// single lease, until its first response states its slots (statedSlots).
// Returns the active fleet size.
func (c *Coordinator) Register(addr string) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	found := false
	for _, w := range c.workers {
		if w.addr == addr {
			w.removed = false
			w.live = true
			found = true
			break
		}
	}
	if !found {
		c.workers = append(c.workers, &workerRef{addr: addr, base: baseURL(addr), live: true, slots: 1})
		c.Count(func() { c.perWorker = append(c.perWorker, farm.WorkerStats{}) })
	}
	n := c.fleetSizeLocked()
	c.mu.Unlock()
	c.cond.Broadcast() // queued work may now be dispatchable
	c.logf("dist: registered worker %s, fleet %d", addr, n)
	return n, nil
}

// Deregister withdraws a worker gracefully: it gets no new leases, in-flight
// leases run to completion, and its store is pulled one last time in the
// background while the process is presumably still up. (A worker that
// dies without deregistering is handled by lease expiry instead.) Returns
// the active fleet size; deregistering an unknown address is a no-op.
func (c *Coordinator) Deregister(addr string) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	var pull *workerRef
	for _, w := range c.workers {
		if w.addr == addr && !w.removed {
			w.removed = true
			if w.live {
				pull = w
			}
		}
	}
	n := c.fleetSizeLocked()
	c.mu.Unlock()
	c.logf("dist: deregistered worker %s, fleet %d", addr, n)
	if pull != nil {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), pullTimeout)
			defer cancel()
			c.pullWorker(ctx, pull)
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

// PullDeltas fetches every reachable fleet member's whole store and merges
// it into the coordinator's store, last-write-wins. The merge skips what the
// coordinator already holds, so a re-sent store costs traffic, never a wrong
// value. Per-worker failures are logged, not returned — a dead worker must
// not block a checkpoint.
func (c *Coordinator) PullDeltas(ctx context.Context) (added, conflicts int) {
	c.mu.Lock()
	var fleet []*workerRef
	for _, w := range c.workers {
		if !w.removed && w.live {
			fleet = append(fleet, w)
		}
	}
	c.mu.Unlock()
	var (
		wg  sync.WaitGroup
		tmu sync.Mutex
	)
	for _, w := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, cf := c.pullWorker(ctx, w)
			tmu.Lock()
			added += a
			conflicts += cf
			tmu.Unlock()
		}()
	}
	wg.Wait()
	return added, conflicts
}

// pullWorker fetches one worker's store and merges it. A pull that adds or
// overwrites an entry counts as a store merge.
func (c *Coordinator) pullWorker(ctx context.Context, w *workerRef) (added, conflicts int) {
	failed := func(err any) (int, int) {
		c.logf("dist: store pull from %s: %v", w.addr, err)
		return 0, 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/store", nil)
	if err != nil {
		return failed(err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return failed(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return failed(resp.Status)
	}
	var d StoreDelta
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return failed(err)
	}
	added, conflicts, err = c.Store().Merge(d.Entries)
	if err != nil {
		return failed(fmt.Errorf("merge: %w", err))
	}
	if added+conflicts > 0 {
		c.Count(func() {
			c.disp.StoreMerges++
			c.disp.StoreMergeConflicts += int64(conflicts)
		})
	}
	return added, conflicts
}

func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, format+"\n", args...)
	}
}

// Checkpoint pulls every reachable worker's store, merges it, and flushes
// the merged store to its durable checkpoint file — so a coordinator
// checkpoint subsumes the fleet's partitioned caches as of that instant,
// and coordinator state survives worker churn.
func (c *Coordinator) Checkpoint() error {
	ctx, cancel := context.WithTimeout(context.Background(), pullTimeout)
	c.PullDeltas(ctx)
	cancel()
	return c.Store().Checkpoint()
}

// execute is the coordinator's executor: queue the planned groups for
// lease. The whole group goes to a single worker, so its points share one
// compile there.
func (c *Coordinator) execute(groups []*farm.Group) {
	c.mu.Lock()
	for _, g := range groups {
		c.queue = append(c.queue, &cgroup{Group: g, lastWorker: -1})
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
	// Whatever is still in flight was queued; nothing will lease it now.
	c.Abandon()
	// Last chance to fold the fleet's partitioned caches into the durable
	// checkpoint; workers already gone were marked dead by their failed
	// leases and are skipped, so this costs at most one pull round.
	ctx, cancel := context.WithTimeout(context.Background(), pullTimeout)
	c.PullDeltas(ctx)
	cancel()
	return c.Store().Close()
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
