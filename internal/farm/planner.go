package farm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/doe"
	"repro/internal/workloads"
)

// ErrClosed rejects work submitted after a backend's Close and fails
// whatever was still waiting when it closed.
var ErrClosed = errors.New("farm: closed")

// Task is one in-flight point. Every caller asking for its key — the first
// submitter and any later joiner — waits on the same task.
type Task struct {
	Job Job
	Key string

	group *Group
	done  chan struct{}
	res   Result // final once done is closed
	err   error
}

// Group is what an executor receives: freshly planned tasks that compile to
// one binary (a single task when nothing in the batch shares its binary, or
// when the planner does not group).
type Group struct {
	Tasks []*Task
	// Ctx is the first submitter's context: its cancellation fails the
	// group, while later joiners bail on their own contexts while waiting.
	Ctx context.Context

	completed bool // guarded by Planner.mu
}

// Workload is the workload every task of the group measures.
func (g *Group) Workload() workloads.Workload { return g.Tasks[0].Job.Workload }

// Planner is the half of a measurement backend that does not depend on
// where simulations run: store lookup, single-flight deduplication, binary
// grouping, waiting, completion and the counters of all five. A backend
// embeds a *Planner and supplies the other half, an executor.
//
// An executor receives each batch's new groups and owes every one of them
// exactly one outcome through Complete or Fail. It may assume the groups are
// deduplicated (no task of theirs is in the store or already running) and
// that completion is idempotent — a second outcome for a group, such as a
// losing hedge twin's, is dropped.
//
// Lock order: an executor's own dispatch lock, then Planner.mu, then the
// stats lock. The planner calls the executor with none of them held.
type Planner struct {
	store    *Store
	execute  func([]*Group)
	grouping bool
	retries  int
	delay    time.Duration
	log      io.Writer
	start    time.Time

	mu       sync.Mutex
	inflight map[string]*Task
	closed   bool

	// statMu guards the planner's counters and, through Count and Snapshot,
	// the embedding backend's: one lock lets Stats take one consistent
	// snapshot, so counters that move together (sims and instrs, groups and
	// the compiles behind them) are never observed torn.
	statMu sync.Mutex
	st     PlannerStats
}

// NewPlanner builds a planner over opts.Store (nil = a fresh MemStore) that
// hands new groups to execute. It reads the store, the log and the transient
// retry policy (MaxRetries, RetryDelay) from opts. With grouping off every
// task is planned as a group of one.
func NewPlanner(opts Options, grouping bool, execute func([]*Group)) *Planner {
	p := &Planner{
		store:    opts.Store,
		execute:  execute,
		grouping: grouping,
		retries:  opts.MaxRetries,
		delay:    opts.RetryDelay,
		log:      opts.Log,
		start:    time.Now(),
		inflight: map[string]*Task{},
	}
	if p.store == nil {
		p.store = MemStore()
	}
	switch {
	case p.retries == 0:
		p.retries = 3
	case p.retries < 0:
		p.retries = 0
	}
	if p.delay == 0 {
		p.delay = 10 * time.Millisecond
	}
	return p
}

func (p *Planner) logf(format string, args ...interface{}) {
	if p.log != nil {
		fmt.Fprintf(p.log, format+"\n", args...)
	}
}

// Store exposes the backend's result store (for checkpointing and
// inspection).
func (p *Planner) Store() *Store { return p.store }

// Count runs one counter update under the stats lock, atomically with
// respect to Snapshot. Backends update their own layer's counters with it.
func (p *Planner) Count(update func()) {
	p.statMu.Lock()
	update()
	p.statMu.Unlock()
}

// Snapshot returns the planner's counters and lets the backend add its own
// layer inside the same critical section.
func (p *Planner) Snapshot(layer func(*Stats)) Stats {
	p.statMu.Lock()
	st := Stats{PlannerStats: p.st}
	layer(&st)
	p.statMu.Unlock()
	st.WallTime = time.Since(p.start)
	return st
}

// Measure returns the requested response of workload w at point p, executing
// the compile+simulate pipeline at most once per distinct point regardless
// of how many goroutines ask. It blocks until the result is available or ctx
// is cancelled.
func (p *Planner) Measure(ctx context.Context, w workloads.Workload, pt doe.Point, resp Response) (float64, error) {
	res, err := p.Do(ctx, Job{Workload: w, Point: pt})
	if err != nil {
		return 0, err
	}
	return resp.Value(res), nil
}

// MeasureBatch measures w at every point and returns the responses in input
// order. The batch goes through DoJobs, so points sharing a binary are
// planned into shared-trace groups. On failure it returns the error of the
// earliest failing point (by input index), matching the serial path's error
// selection so parallel and serial runs are indistinguishable.
func (p *Planner) MeasureBatch(ctx context.Context, w workloads.Workload, points []doe.Point, resp Response) ([]float64, error) {
	jobs := make([]Job, len(points))
	for i, pt := range points {
		jobs[i] = Job{Workload: w, Point: pt}
	}
	res, errs := p.DoJobs(ctx, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(points))
	for i := range res {
		out[i] = resp.Value(res[i])
	}
	return out, nil
}

// Do runs one job through the store, single-flight and executor layers and
// returns its full result.
func (p *Planner) Do(ctx context.Context, job Job) (Result, error) {
	res, errs, _ := p.Run(ctx, []Job{job})
	return res[0], errs[0]
}

// DoJobs runs a batch of jobs, returning one result and one error per job in
// input order. It sees the whole batch at once, so jobs that compile to the
// same binary are planned into one group for the executor to compile once
// and interpret once.
func (p *Planner) DoJobs(ctx context.Context, jobs []Job) ([]Result, []error) {
	res, errs, _ := p.Run(ctx, jobs)
	return res, errs
}

// Run is DoJobs that also reports how many of the jobs the store answered.
// Each job is a store hit, a joiner of a task already running (here or in an
// earlier batch), or a new task; new tasks are grouped by BinaryKey in
// first-seen order and handed to the executor.
func (p *Planner) Run(ctx context.Context, jobs []Job) (res []Result, errs []error, hits int) {
	res = make([]Result, len(jobs))
	errs = make([]error, len(jobs))
	tasks := make([]*Task, len(jobs))
	keys := make([]string, len(jobs))
	pending := make([]int, 0, len(jobs)) // indices not served by the store
	for i, job := range jobs {
		keys[i] = Key(job.Workload, job.Point)
		if c, e, ok := p.store.Get2(keys[i], EnergyKey(keys[i])); ok {
			res[i] = Result{Cycles: c, Energy: e}
			continue
		}
		pending = append(pending, i)
	}
	hits = len(jobs) - len(pending)
	if hits > 0 {
		p.Count(func() { p.st.CacheHits += int64(hits) })
	}
	if len(pending) == 0 {
		return res, errs, hits
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for _, i := range pending {
			errs[i] = ErrClosed
		}
		return res, errs, hits
	}
	var groups []*Group
	byBin := map[string]*Group{}
	var joined, fresh int64
	for _, i := range pending {
		if t, ok := p.inflight[keys[i]]; ok {
			tasks[i] = t
			joined++
			continue
		}
		t := &Task{Job: jobs[i], Key: keys[i], done: make(chan struct{})}
		p.inflight[t.Key] = t
		tasks[i] = t
		fresh++
		bin := t.Key // ungrouped: nothing shares a task's group
		if p.grouping {
			bin = BinaryKey(t.Job.Workload, t.Job.Point)
		}
		g := byBin[bin]
		if g == nil {
			g = &Group{Ctx: ctx}
			byBin[bin] = g
			groups = append(groups, g)
		}
		t.group = g
		g.Tasks = append(g.Tasks, t)
	}
	// Counted before the tasks can run, so no snapshot ever shows more
	// completions than misses.
	p.Count(func() {
		p.st.Coalesced += joined
		p.st.CacheMisses += fresh
	})
	p.mu.Unlock()
	if len(groups) > 0 {
		p.execute(groups)
	}

	for _, i := range pending {
		t := tasks[i]
		select {
		case <-t.done:
			res[i], errs[i] = t.res, t.err
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	return res, errs, hits
}

// Complete delivers a group's outcome, one result and one error per task.
// The first outcome wins; later ones are dropped. Successful results are
// journaled before any waiter can observe them, the counters move in one
// critical section, and only then do the tasks leave the in-flight map and
// their waiters wake. Complete does journal IO and may sleep between
// retries: call it with no dispatch lock held.
func (p *Planner) Complete(g *Group, results []Result, errs []error) {
	p.mu.Lock()
	if g.completed {
		p.mu.Unlock()
		return
	}
	g.completed = true
	p.mu.Unlock()

	var ok, instrs, failed, budget int64
	for i, t := range g.Tasks {
		t.res, t.err = results[i], errs[i]
		if t.err != nil {
			failed++
			if Classify(t.err) == ClassBudget {
				budget++
			}
			continue
		}
		ok++
		instrs += t.res.Instructions
		if perr := p.persist(t.Key, t.res); perr != nil {
			// The measurement itself is valid; a store that stays broken
			// past its retries costs durability, not correctness.
			p.logf("farm: store append for %s failed: %v", t.Key, perr)
		}
	}
	p.Count(func() {
		p.st.SimsExecuted += ok
		p.st.InstrsSimulated += instrs
		p.st.Failures += failed
		p.st.BudgetOverruns += budget
		if len(g.Tasks) > 1 {
			p.st.BinaryGroups++
			p.st.TraceSharedSims += ok
		}
	})
	p.mu.Lock()
	for _, t := range g.Tasks {
		delete(p.inflight, t.Key)
	}
	p.mu.Unlock()
	for _, t := range g.Tasks {
		close(t.done)
	}
}

// Fail completes every task of the group with err.
func (p *Planner) Fail(g *Group, err error) {
	errs := make([]error, len(g.Tasks))
	for i := range errs {
		errs[i] = err
	}
	p.Complete(g, make([]Result, len(g.Tasks)), errs)
}

// persist journals both responses of a result, retrying transient IO.
func (p *Planner) persist(key string, res Result) error {
	var err error
	for try := 0; try <= p.retries; try++ {
		err = p.store.Put(Entry(key, res.Cycles), Entry(EnergyKey(key), res.Energy))
		if err == nil || Classify(err) != ClassTransient {
			return err
		}
		p.Count(func() { p.st.Retries++ })
		time.Sleep(p.delay * time.Duration(try+1))
	}
	return err
}

// Shut makes the planner reject new work; it reports false when the planner
// was shut already. It is the first step of a backend's Close, before the
// executor stops.
func (p *Planner) Shut() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.closed = true
	return true
}

// Abandon fails whatever is still in flight with ErrClosed: groups the
// executor never got to, or that were handed over while it was stopping. A
// backend's Close calls it once its executor has stopped, before closing
// the store.
func (p *Planner) Abandon() {
	p.mu.Lock()
	open := map[*Group]struct{}{}
	for _, t := range p.inflight {
		open[t.group] = struct{}{}
	}
	p.mu.Unlock()
	for g := range open {
		p.Fail(g, ErrClosed)
	}
}
