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

// Group is what an executor receives: new tasks that compile to one binary
// (a single task when nothing shares its binary, or when the planner does not
// group). Until the executor calls Start the group is open: a new task of a
// later batch that needs the same binary is added to it, whoever submits it.
type Group struct {
	// Tasks is final once Start has returned; an executor reads it only then.
	Tasks []*Task
	// Ctx is the planner's own context for the group, never a caller's. It is
	// cancelled when the last request waiting on any of the group's tasks has
	// left — nobody wants the outcome, so stop and do not retry — and when the
	// group completes, which stops a losing hedge twin.
	Ctx context.Context

	cancel context.CancelFunc
	bin    string // the key under which Planner.open holds the group while open

	// guarded by Planner.mu
	waiting   int // jobs of Run calls that have not left the group's tasks
	completed bool
}

// Workload is the workload every task of the group measures.
func (g *Group) Workload() workloads.Workload { return g.Tasks[0].Job.Workload }

// Planner is the half of a measurement backend that does not depend on
// where simulations run: store lookup, single-flight deduplication, binary
// grouping, waiting, completion and the counters of all five. A backend
// embeds a *Planner and supplies the other half, an executor.
//
// An executor receives each batch's new groups, calls Start on a group when
// it begins work on it, and owes every group exactly one outcome through
// Complete or Fail. It may assume the groups are deduplicated (no task of
// theirs is in the store or already running) and that completion is
// idempotent — a second outcome for a group, such as a losing hedge twin's,
// is dropped.
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
	inflight map[string]*Task  // by Key: tasks a request may still join
	open     map[string]*Group // by BinaryKey: groups no executor has started
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
		open:     map[string]*Group{},
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
// Every job is classified under one hold of the lock: it joins a task already
// in flight (planned here or by an earlier batch), else is answered by the
// store, else becomes a new task. Complete journals a result before it takes
// the task off the in-flight map, so a point that finishes meanwhile is found
// by one check or the other and never executed twice. A new task joins the
// open group of its BinaryKey, or opens one; groups opened here go to the
// executor in first-seen order.
func (p *Planner) Run(ctx context.Context, jobs []Job) (res []Result, errs []error, hits int) {
	res = make([]Result, len(jobs))
	errs = make([]error, len(jobs))
	tasks := make([]*Task, len(jobs)) // nil where there is nothing to wait for
	keys := make([]string, len(jobs))
	for i, job := range jobs {
		keys[i] = Key(job.Workload, job.Point)
	}

	var groups []*Group
	var joined, fresh int64
	p.mu.Lock()
	for i, job := range jobs {
		// A task whose group has lost its last waiter is doomed: not joined.
		if t := p.inflight[keys[i]]; t != nil && t.group.Ctx.Err() == nil {
			tasks[i] = t
			t.group.waiting++
			joined++
			continue
		}
		if c, e, ok := p.store.Get2(keys[i], EnergyKey(keys[i])); ok {
			res[i] = Result{Cycles: c, Energy: e}
			hits++
			continue
		}
		if p.closed {
			errs[i] = ErrClosed
			continue
		}
		t := &Task{Job: job, Key: keys[i], done: make(chan struct{})}
		p.inflight[t.Key] = t
		tasks[i] = t
		fresh++
		bin := t.Key // ungrouped: nothing shares a task's group
		if p.grouping {
			bin = BinaryKey(job.Workload, job.Point)
		}
		g := p.open[bin]
		if g == nil || g.Ctx.Err() != nil {
			g = &Group{bin: bin}
			g.Ctx, g.cancel = context.WithCancel(context.Background())
			p.open[bin] = g
			groups = append(groups, g)
		}
		t.group = g
		g.waiting++
		g.Tasks = append(g.Tasks, t)
	}
	// Counted before the lock is released, and so before Start can hand the
	// new tasks to an executor: no snapshot ever shows more completions than
	// misses.
	p.Count(func() {
		p.st.CacheHits += int64(hits)
		p.st.Coalesced += joined
		p.st.CacheMisses += fresh
	})
	p.mu.Unlock()
	if len(groups) > 0 {
		p.execute(groups)
	}

	for i, t := range tasks {
		if t == nil {
			continue
		}
		select {
		case <-t.done:
			res[i], errs[i] = t.res, t.err
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	if ctx.Err() != nil {
		p.leave(tasks)
	}
	return res, errs, hits
}

// leave withdraws a cancelled Run call from the groups it waited on. A group
// that loses its last waiter has its context cancelled, so the executor can
// stop; it still owes the group an outcome, which nobody is waiting for. In a
// group that has completed meanwhile there is nothing left to cancel.
func (p *Planner) leave(tasks []*Task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range tasks {
		if t != nil {
			if t.group.waiting--; t.group.waiting == 0 {
				t.group.cancel()
			}
		}
	}
}

// Start freezes g's membership: from here on a new task that needs its binary
// opens another group. An executor calls it when it begins work on the group
// (a pool worker at dequeue, the lease scheduler at each lease) and sizes
// nothing by g.Tasks before. A hedge or a requeue starts a started group
// again, which changes nothing.
func (p *Planner) Start(g *Group) {
	p.mu.Lock()
	if p.open[g.bin] == g {
		delete(p.open, g.bin)
	}
	p.mu.Unlock()
}

// Complete delivers a group's outcome, one result and one error per task.
// The first outcome wins; later ones are dropped. Successful results are
// journaled before any waiter can observe them, the counters move in one
// critical section, and only then do the tasks leave the in-flight map and
// their waiters wake. Complete does journal IO and may sleep between
// retries: call it with no dispatch lock held.
//
// The group's results are journaled by one Put, retried as a unit. Results
// reach their waiters whatever the journal does: Put updates memory before it
// appends, so a group whose append still fails after its retries is served
// from memory and costs durability only.
func (p *Planner) Complete(g *Group, results []Result, errs []error) {
	p.mu.Lock()
	if g.completed {
		p.mu.Unlock()
		return
	}
	g.completed = true
	p.mu.Unlock()

	var ok, instrs, failed, budget int64
	entries := make([]KV, 0, 2*len(g.Tasks))
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
		entries = append(entries, Entry(t.Key, t.res.Cycles), Entry(EnergyKey(t.Key), t.res.Energy))
	}
	if ok > 0 {
		if perr := p.persist(entries); perr != nil {
			p.logf("farm: store append for %d points of %s failed: %v", ok, g.Workload().Key(), perr)
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
		// An abandoned group's task may have been replaced by a fresh one.
		if p.inflight[t.Key] == t {
			delete(p.inflight, t.Key)
		}
	}
	p.mu.Unlock()
	for _, t := range g.Tasks {
		close(t.done)
	}
	g.cancel() // only now: on a task still in the map, a dead context means abandoned
}

// Fail completes every task of the group with err.
func (p *Planner) Fail(g *Group, err error) {
	errs := make([]error, len(g.Tasks))
	for i := range errs {
		errs[i] = err
	}
	p.Complete(g, make([]Result, len(g.Tasks)), errs)
}

// persist journals a group's entries, retrying transient IO.
func (p *Planner) persist(entries []KV) error {
	var err error
	for try := 0; try <= p.retries; try++ {
		err = p.store.Put(entries...)
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
