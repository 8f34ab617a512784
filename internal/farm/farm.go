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
//     an executor compiles once for all of them, and a group stays open to
//     later batches until an executor starts it;
//   - exactly-once completion with bounded retry of transient store IO.
//
// Behind it sits an executor that turns planned groups into results. This
// package has the local one, Farm: a budget of slots, one simulation each,
// with a binary cache, typed errors (a measurement is tried once; budget
// overruns are counted apart) and context cancellation that drains cleanly.
// internal/dist has the other, a lease scheduler over remote workers.
//
// Results are keyed by point and order-independent, so a parallel run is
// bit-for-bit identical to a serial one (DESIGN.md, "internal/farm").
package farm

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/par"
)

// Options configures a Farm.
type Options struct {
	// Workers is the farm's slot budget, the number of Measure calls in
	// flight at once; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Store holds completed measurements; nil means a fresh MemStore.
	Store *Store
	// Measure executes one job; nil means the farm's own executor, a compile
	// served by the shared binary cache and then one sim.Simulate. Either way
	// the planner groups the points that share a binary, and each point of a
	// group is one Measure call on a slot of its own.
	Measure MeasureFunc
	// MaxInstrs is the per-simulation instruction budget for the default
	// executor (0 = 500M).
	MaxInstrs int64
	// Log receives progress and recovery lines; nil silences them.
	Log io.Writer
}

// binaryCacheSize bounds the compiled-binary cache, in binaries.
const binaryCacheSize = 256

// Farm is the in-process measurement backend: a Planner in front of a
// budget of Workers slots. Create with New, submit with MeasureBatch or
// DoJobs, and Close when done to flush the store.
type Farm struct {
	*Planner
	measure MeasureFunc // Options.Measure, or the default executor simulate

	// Compile machinery of the default executor: binary cache and compile
	// hook (swappable in tests).
	bins      *par.Cache[string, *isa.Program]
	compile   compileFn
	maxInstrs int64

	slots chan int // the free slots, by index into perWorker
	// handed is read-held by every group handed to the pool until its
	// outcome is in; Close write-locks it to wait for them.
	handed sync.RWMutex

	// Pool-layer counters, guarded by the planner's stats lock (Count).
	pool      PoolStats
	perWorker []WorkerStats
}

// New starts a farm of opts.Workers slots.
func New(opts Options) *Farm {
	f := &Farm{
		measure:   opts.Measure,
		bins:      par.NewCache[string, *isa.Program](binaryCacheSize),
		compile:   defaultCompile,
		maxInstrs: opts.MaxInstrs,
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if f.maxInstrs == 0 {
		f.maxInstrs = 500_000_000
	}
	if f.measure == nil {
		f.measure = f.simulate
	}
	f.Planner = NewPlanner(opts, f.execute)
	f.slots = make(chan int, workers)
	f.perWorker = make([]WorkerStats, workers)
	for i := range f.perWorker {
		f.perWorker[i].Slots = 1
		f.slots <- i
	}
	return f
}

// execute is the farm's executor: each planned group waits for a slot.
func (f *Farm) execute(groups []*Group) {
	for _, g := range groups {
		f.handed.RLock()
		go f.run(g)
	}
}

// run executes one group, once, and hands the outcome to the planner. The
// group waits for a free slot, open to later batches until it has one; then
// each point is one Measure call on a slot of its own, the first on the slot
// the group waited for, the rest as slots come free. The points share their
// binary through the binary cache, and a failed compile fails the rest of
// the group without compiling again. Nothing is retried: a compile and a
// simulation are deterministic, so a failed measurement fails again.
func (f *Farm) run(g *Group) {
	defer f.handed.RUnlock()
	slot := <-f.slots
	f.Start(g) // while it waited for the slot, later batches could still add to it
	results := make([]Result, len(g.Tasks))
	errs := make([]error, len(g.Tasks))
	var points sync.WaitGroup
	var compileErr atomic.Pointer[error] // the group's failed build, once a point has met it
	for i, t := range g.Tasks {
		if i > 0 {
			slot = <-f.slots
		}
		points.Add(1)
		go func(i, slot int) {
			defer func() { f.slots <- slot; points.Done() }()
			errs[i] = g.Ctx.Err()
			if failed := compileErr.Load(); failed != nil {
				errs[i] = *failed
			}
			if errs[i] != nil {
				return
			}
			start := time.Now()
			results[i], errs[i] = f.measure(g.Ctx, t.Job)
			f.Count(func() { f.perWorker[slot].Jobs++; f.perWorker[slot].Busy += time.Since(start) })
			if errors.As(errs[i], new(*CompileError)) {
				compileErr.Store(&errs[i])
			}
		}(i, slot)
	}
	points.Wait()
	// One line per failure: a compile error that points met while it was
	// in flight, or after it failed, is one error shared by them, a
	// simulation error each point's own.
	for i := 0; i < len(errs); {
		err, n := errs[i], 1
		for i+n < len(errs) && errs[i+n] == err {
			n++
		}
		i += n
		switch {
		case err == nil:
		case IsBudget(err):
			f.logf("farm: %s: %v", g.Workload().Key(), err)
		default:
			f.logf("farm: %s: permanent failure (%d points): %v", g.Workload().Key(), n, err)
		}
	}
	f.Complete(g, results, errs)
}

// Checkpoint flushes the result store to its durable checkpoint file.
func (f *Farm) Checkpoint() error { return f.store.Checkpoint() }

// Close waits for the groups already handed to the pool, fails whatever is
// left in flight and closes the store (flushing a final checkpoint when
// durable). The farm rejects new work afterwards.
func (f *Farm) Close() error {
	if !f.Shut() {
		return nil
	}
	// Held to the end, so a group handed over after Shut starts only once
	// Abandon has failed it.
	f.handed.Lock()
	defer f.handed.Unlock()
	f.Abandon()
	return f.store.Close()
}

// WorkerStats reports one worker's share of the farm's work. For the
// in-process farm a worker is one slot (Slots is always 1, Jobs counts the
// points measured on it, Busy the time inside Measure, and the remote-plane
// fields stay zero); for the distributed coordinator a worker is one
// empirico-worker process with an address, a stated slot budget and a
// worker-local result store, and Jobs and Busy count its leases.
type WorkerStats struct {
	Jobs int64
	Busy time.Duration
	// Addr identifies a remote worker process ("" for in-process workers).
	Addr string
	// Slots is the worker's lease capacity (the -workers count it states on
	// the distributed plane; 1 for an in-process slot).
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
	// Retries counts journal appends retried after a filesystem or syscall
	// error, on either plane. Measurements are never retried.
	Retries        int64
	BudgetOverruns int64
	Failures       int64
	// BinaryGroups counts completed groups of two or more points, the ones
	// whose points shared one compile;
	// TraceSharedSims counts their successful points. A point alone with its
	// binary moves neither.
	TraceSharedSims int64
	BinaryGroups    int64
}

// PoolStats are the counters of the local worker pool's default executor:
// binary-cache traffic, one lookup per point. They stay zero on a
// coordinator, whose compiles and simulations happen worker-side, and under
// a custom Measure.
type PoolStats struct {
	CompileCacheHits   int64
	CompileCacheMisses int64
}

// DispatchStats are the counters of the plane that places groups on
// executors.
type DispatchStats struct {
	// GroupsDispatched counts handovers of a group to an executor, that is
	// calls of Planner.Start: in the local pool one per group that gets a
	// slot, a lone point included, on the coordinator one per worker
	// lease of any group, so requeue re-leases count again.
	// GroupsRequeued counts leases abandoned after worker death or drain, and
	// WorkersLive is the executors currently believed healthy (for the
	// in-process farm that is simply the slot count).
	GroupsDispatched int64
	GroupsRequeued   int64
	WorkersLive      int64
	// GroupsHedged is always 0: the coordinator leases a group to one worker
	// at a time. The benchmark module's march report still reads it.
	GroupsHedged int64
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
// jobs (1.0 = every worker, or every in-process slot, busy the whole time).
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
		st.Workers = len(f.perWorker)
		st.PoolStats = f.pool
		st.WorkersLive = int64(st.Workers)
		st.PerWorker = append([]WorkerStats(nil), f.perWorker...)
	})
}
