// Package farm is the measurement-execution engine of the reproduction: it
// accepts (workload, design-point) jobs and runs the compile+simulate
// pipeline for them. It is built as planner + executor.
//
// The Planner is the single path every measurement takes, whichever plane
// simulates it:
//
//   - a durable result store (Store): completed measurements are journaled
//     as they finish and checkpointed via temp-file + atomic rename, staying
//     read-compatible with the original measurements-*.json cache format;
//   - single-flight deduplication: two callers asking for the same point
//     trigger one execution, with the second caller waiting on the first's
//     result (the pre-farm harness dropped its lock during simulation and
//     silently duplicated concurrent work);
//   - batch planning: new points that compile to one binary form a group, so
//     an executor compiles once and interprets once for all of them, and a
//     group stays open to later batches until an executor starts it;
//   - exactly-once completion with bounded retry of transient store IO.
//
// Behind it sits an executor that turns planned groups into results. This
// package has the local one, Farm: a bounded worker pool with a binary
// cache, error classification (compile errors fail fast, budget overruns are
// reported, transient failures retry) and context cancellation that drains
// workers cleanly. internal/dist has the other, a lease scheduler over
// remote workers.
//
// Results are keyed by point and order-independent, so a parallel run is
// bit-for-bit identical to a serial one (DESIGN.md decision 7).
package farm

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Options configures a Farm.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Store holds completed measurements; nil means a fresh MemStore.
	Store *Store
	// Measure executes jobs; nil means the farm's own executor — compiles
	// served by the shared binary cache, and points that share a binary
	// grouped onto one sim.SimulateMany pass. A non-nil Measure owns the
	// whole pipeline and turns grouping off.
	Measure MeasureFunc
	// MaxInstrs is the per-simulation instruction budget for the default
	// executor (0 = 500M).
	MaxInstrs int64
	// MaxRetries bounds retries of transient failures per job (0 = 3,
	// negative = no retries).
	MaxRetries int
	// RetryDelay is the base backoff between transient retries, growing
	// linearly with the attempt (0 = 10ms).
	RetryDelay time.Duration
	// Log receives progress and recovery lines; nil silences them.
	Log io.Writer
}

// binaryCacheSize bounds the compiled-binary LRU, in binaries.
const binaryCacheSize = 256

// Farm is the in-process measurement backend: a Planner in front of a
// bounded worker pool. Create with New, submit with Measure, MeasureBatch or
// DoJobs, and Close when done to flush the store.
type Farm struct {
	*Planner
	workers int
	measure MeasureFunc

	// Compile machinery of the default executor: binary cache and compile
	// hook (swappable in tests).
	bins      *binaryCache
	compile   compileFn
	maxInstrs int64

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Group
	stopped bool
	wg      sync.WaitGroup

	// Pool-layer counters, guarded by the planner's stats lock (Count).
	pool       PoolStats
	dispatched int64
	perWorker  []WorkerStats
}

// New starts a farm with opts.Workers workers. The pool runs until Close.
func New(opts Options) *Farm {
	f := &Farm{
		workers:   opts.Workers,
		measure:   opts.Measure,
		bins:      newBinaryCache(binaryCacheSize),
		compile:   defaultCompile,
		maxInstrs: opts.MaxInstrs,
	}
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	if f.maxInstrs == 0 {
		f.maxInstrs = 500_000_000
	}
	// Grouping only applies with the default executor. A custom Measure owns
	// the whole pipeline, so the planner can't split it.
	grouping := f.measure == nil
	if f.measure == nil {
		f.measure = f.cachedExecutor
	}
	f.Planner = NewPlanner(opts, grouping, f.execute)
	f.cond = sync.NewCond(&f.mu)
	f.perWorker = make([]WorkerStats, f.workers)
	for i := range f.perWorker {
		f.perWorker[i].Slots = 1
	}
	f.wg.Add(f.workers)
	for i := 0; i < f.workers; i++ {
		go f.worker(i)
	}
	return f
}

// execute is the farm's executor: queue the planned groups for the pool.
func (f *Farm) execute(groups []*Group) {
	f.mu.Lock()
	f.queue = append(f.queue, groups...)
	for range groups {
		f.cond.Signal()
	}
	f.mu.Unlock()
}

func (f *Farm) worker(id int) {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		for len(f.queue) == 0 && !f.stopped {
			f.cond.Wait()
		}
		if len(f.queue) == 0 {
			// Stopped with an empty queue: the pool has drained.
			f.mu.Unlock()
			return
		}
		g := f.queue[0]
		f.queue = f.queue[1:]
		f.mu.Unlock()
		f.Start(g) // while it waited here, later batches could still add to it
		start := time.Now()
		f.run(g)
		busy := time.Since(start)
		f.Count(func() {
			f.perWorker[id].Busy += busy
			f.perWorker[id].Jobs++
		})
	}
}

// run executes one group and hands the outcome to the planner. A lone task
// goes through the measure function under the retry policy; tasks sharing a
// binary go through one shared interpretation.
func (f *Farm) run(g *Group) {
	results := make([]Result, len(g.Tasks))
	errs := make([]error, len(g.Tasks))
	if len(g.Tasks) == 1 {
		results[0], errs[0] = f.attempt(g.Ctx, g.Tasks[0].Job)
	} else {
		f.simulateShared(g, results, errs)
	}
	// A shared group fails as a whole, so its first error speaks for it.
	if err := errs[0]; err != nil {
		switch Classify(err) {
		case ClassBudget:
			f.logf("farm: %s: %v", g.Workload().Key(), err)
		case ClassPermanent:
			f.logf("farm: %s: permanent failure (%d points): %v", g.Workload().Key(), len(g.Tasks), err)
		}
	}
	f.Complete(g, results, errs)
}

// attempt runs the measurement, retrying transient failures with linear
// backoff up to the retry budget, and honouring cancellation between tries.
func (f *Farm) attempt(ctx context.Context, job Job) (Result, error) {
	for try := 0; ; try++ {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		res, err := f.measure(ctx, job)
		if err == nil || Classify(err) != ClassTransient || try >= f.retries {
			return res, err
		}
		f.Count(func() { f.st.Retries++ })
		f.logf("farm: %s: transient failure (attempt %d/%d): %v",
			job.Workload.Key(), try+1, f.retries, err)
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(f.delay * time.Duration(try+1)):
		}
	}
}

// Checkpoint flushes the result store to its durable checkpoint file.
func (f *Farm) Checkpoint() error { return f.store.Checkpoint() }

// Close drains the queue, stops the workers and closes the store (flushing
// a final checkpoint when durable). The farm rejects new work afterwards.
func (f *Farm) Close() error {
	if !f.Shut() {
		return nil
	}
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
	f.Abandon()
	return f.store.Close()
}

// WorkerStats reports one worker's share of the farm's work. For the
// in-process farm a worker is one pool goroutine (Slots is always 1 and the
// remote-plane fields stay zero); for the distributed coordinator a worker
// is one empirico-worker process with an address, an advertised slot budget
// and a worker-local result store.
type WorkerStats struct {
	Jobs int64
	Busy time.Duration
	// Addr identifies a remote worker process ("" for in-process workers).
	Addr string
	// Slots is the worker's lease capacity (its advertised -workers count on
	// the distributed plane; 1 for an in-process pool goroutine).
	Slots int64
	// InFlight is the leases currently held by this worker.
	InFlight int64
	// Groups counts shared-binary groups this worker completed.
	Groups int64
	// LocalHits counts points this worker answered from its own journaled
	// store without simulating.
	LocalHits int64
	// Removed marks a worker that deregistered (it takes no new leases but
	// stays in the stats so its totals remain visible).
	Removed bool
}

// PlannerStats are the counters of the layer both planes share: store
// lookup, single-flight, grouping and completion. They mean the same thing
// whether the simulations ran in this process or on remote workers.
type PlannerStats struct {
	CacheHits       int64 // requests served from the result store
	CacheMisses     int64 // requests that became executions
	Coalesced       int64 // requests that joined an in-flight execution
	SimsExecuted    int64
	InstrsSimulated int64
	// Retries counts transient failures retried: journal appends on either
	// plane, plus measurement attempts in the local pool.
	Retries        int64
	BudgetOverruns int64
	Failures       int64
	// BinaryGroups counts completed groups of two or more points, the ones
	// whose points shared one compile and one functional interpretation;
	// TraceSharedSims counts their successful points. A point alone with its
	// binary moves neither.
	TraceSharedSims int64
	BinaryGroups    int64
}

// PoolStats are the counters of the local worker pool's default executor:
// binary-cache traffic and the engine tiers. They stay zero on a
// coordinator, whose compiles and simulations happen worker-side.
type PoolStats struct {
	CompileCacheHits   int64
	CompileCacheMisses int64
	// The translated-engine trio moves only for ungrouped sims (grouped
	// sims ride the shared-trace path).
	BlocksTranslated int64 // static blocks translated across executed sims
	TranslatedInstrs int64 // dynamic instructions retired via translated blocks
	SlowPathEntries  int64 // translated-engine falls back to the fused loop
}

// DispatchStats are the counters of the plane that places groups on
// executors.
type DispatchStats struct {
	// GroupsDispatched counts handovers of a group to an executor: in the
	// local pool one per shared-binary group run, on the coordinator one per
	// worker lease of any group, so hedges and requeue re-leases count again.
	// GroupsHedged counts straggler re-dispatches, GroupsRequeued counts
	// leases abandoned after worker death or drain, and WorkersLive is the
	// executors currently believed healthy (for the in-process farm that is
	// simply the pool size).
	GroupsDispatched int64
	GroupsHedged     int64
	GroupsRequeued   int64
	WorkersLive      int64
	// Elastic-plane counters. WorkerLocalHits totals the points remote
	// workers answered from their own journaled stores (zero in-process);
	// StoreMerges counts worker-delta pulls merged into the coordinator's
	// store and StoreMergeConflicts the last-write-wins overwrites those
	// merges performed (identical values are idempotent, not conflicts).
	WorkerLocalHits     int64
	StoreMerges         int64
	StoreMergeConflicts int64
}

// Stats is a snapshot of a backend's instrumentation counters, one embedded
// struct per layer.
type Stats struct {
	Workers int
	PlannerStats
	PoolStats
	DispatchStats
	WallTime  time.Duration
	PerWorker []WorkerStats
}

// Utilization is the mean fraction of wall time the workers spent executing
// jobs (1.0 = every worker busy the whole time).
func (s Stats) Utilization() float64 {
	if s.WallTime <= 0 || s.Workers == 0 {
		return 0
	}
	var busy time.Duration
	for _, w := range s.PerWorker {
		busy += w.Busy
	}
	return float64(busy) / (float64(s.WallTime) * float64(s.Workers))
}

// String renders the one-line summary the harness log prints.
func (s Stats) String() string {
	return fmt.Sprintf(
		"farm: %d workers, %d sims (%d Minstrs), %d cache hits, %d coalesced, %d retries, %d failures, %.0f%% utilization, %s wall",
		s.Workers, s.SimsExecuted, s.InstrsSimulated/1_000_000,
		s.CacheHits, s.Coalesced, s.Retries, s.Failures,
		100*s.Utilization(), s.WallTime.Round(time.Millisecond))
}

// Stats snapshots the farm's counters. The whole snapshot is taken under a
// single acquisition of the stats lock, so counters that are updated
// together are seen together: InstrsSimulated always corresponds to exactly
// SimsExecuted completed simulations, never a torn in-between state.
func (f *Farm) Stats() Stats {
	return f.Snapshot(func(st *Stats) {
		st.Workers = f.workers
		st.PoolStats = f.pool
		st.GroupsDispatched = f.dispatched
		st.WorkersLive = int64(f.workers)
		st.PerWorker = append([]WorkerStats(nil), f.perWorker...)
	})
}
