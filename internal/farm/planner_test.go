package farm

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/sim"
)

// heldExecutor is the fake behind the planner in these tests: it keeps every
// group it is handed and completes nothing until the test says so — no pool,
// no HTTP. It starts each group on receipt, as an idle executor would, unless
// the test sets hold to keep the groups open and start them itself.
type heldExecutor struct {
	p    *Planner
	hold bool

	mu     sync.Mutex
	groups []*Group
	calls  chan struct{} // one token per execute call
}

// newHeldPlanner builds a planner over a held executor.
func newHeldPlanner(opts Options) (*heldExecutor, *Planner) {
	// Buffered beyond any test's batch count, so execute never blocks.
	e := &heldExecutor{calls: make(chan struct{}, 16)}
	e.p = NewPlanner(opts, e.execute)
	return e, e.p
}

func (e *heldExecutor) execute(groups []*Group) {
	e.mu.Lock()
	e.groups = append(e.groups, groups...)
	e.mu.Unlock()
	if !e.hold {
		for _, g := range groups {
			e.p.Start(g)
		}
	}
	e.calls <- struct{}{}
}

func (e *heldExecutor) held() []*Group {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Group(nil), e.groups...)
}

// succeed completes g the way a working executor would.
func succeed(p *Planner, g *Group) {
	results := make([]Result, len(g.Tasks))
	for i, t := range g.Tasks {
		results[i] = Result{Cycles: pointValue(t.Job.Point), Energy: 1, Instructions: 10}
	}
	p.Complete(g, results, make([]error, len(g.Tasks)))
}

type runOutcome struct {
	res  []Result
	errs []error
	hits int
}

func runAsync(p *Planner, ctx context.Context, jobs []Job) <-chan runOutcome {
	out := make(chan runOutcome, 1)
	go func() {
		res, errs, hits := p.Run(ctx, jobs)
		out <- runOutcome{res, errs, hits}
	}()
	return out
}

// awaitPlanned blocks until the planner has classified n requests as hit,
// miss or joiner.
func awaitPlanned(t *testing.T, p *Planner, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := plannerStats(p)
		if st.CacheHits+st.CacheMisses+st.Coalesced >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("planner never classified %d requests: %+v", n, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func plannerStats(p *Planner) PlannerStats { return p.Snapshot(func(*Stats) {}).PlannerStats }

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func awaitRun(t *testing.T, what string, ch <-chan runOutcome) runOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return runOutcome{}
	}
}

// plannerPoints are three points on one binary and one point alone on
// another.
func plannerPoints() []doe.Point {
	wide := sim.DefaultConfig()
	slow := wide
	slow.MemLat = 150
	return []doe.Point{
		jointPoint(compiler.O2(), wide),
		jointPoint(compiler.O2(), sim.Aggressive()),
		jointPoint(compiler.O2(), slow),
		jointPoint(compiler.O3(), sim.Constrained()),
	}
}

func jobsAt(points []doe.Point, idx []int) []Job {
	w := tinyWorkload()
	jobs := make([]Job, len(idx))
	for i, j := range idx {
		jobs[i] = Job{Workload: w, Point: points[j]}
	}
	return jobs
}

// TestPlannerPlansBatch drives every way a job can leave the planner — store
// hit, in-batch duplicate, joiner of an earlier batch's task, a point alone
// with its binary, a shared-binary group, rejection after close — against
// the fake executor, and checks what the executor was handed, what each
// caller got back and the planner-layer counters.
func TestPlannerPlansBatch(t *testing.T) {
	points := plannerPoints()
	cases := []struct {
		name    string
		stored  []int   // points already in the store
		running []int   // points of an earlier batch, still in flight
		closed  bool    // planner shut before the batch arrives
		batch   []int   // the batch under test
		groups  [][]int // what the executor must be handed for it
		hits    int
		want    PlannerStats // after everything completed
	}{
		{
			name: "store hit", stored: []int{0}, batch: []int{0},
			hits: 1, want: PlannerStats{CacheHits: 1},
		},
		{
			name: "singleton", batch: []int{3}, groups: [][]int{{3}},
			want: PlannerStats{CacheMisses: 1, SimsExecuted: 1, InstrsSimulated: 10},
		},
		{
			name: "multi-point group", batch: []int{0, 3, 1, 2}, groups: [][]int{{0, 1, 2}, {3}},
			want: PlannerStats{CacheMisses: 4, SimsExecuted: 4, InstrsSimulated: 40, BinaryGroups: 1, TraceSharedSims: 3},
		},
		{
			name: "in-batch duplicate", batch: []int{3, 3}, groups: [][]int{{3}},
			want: PlannerStats{CacheMisses: 1, Coalesced: 1, SimsExecuted: 1, InstrsSimulated: 10},
		},
		{
			name: "concurrent joiner", running: []int{0, 1}, batch: []int{1, 2}, groups: [][]int{{2}},
			want: PlannerStats{CacheMisses: 3, Coalesced: 1, SimsExecuted: 3, InstrsSimulated: 30, BinaryGroups: 1, TraceSharedSims: 2},
		},
		{
			name: "submit after close", stored: []int{0}, closed: true, batch: []int{0, 3},
			hits: 1, want: PlannerStats{CacheHits: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, p := newHeldPlanner(Options{})
			for _, job := range jobsAt(points, tc.stored) {
				key := Key(job.Workload, job.Point)
				if err := p.Store().Put(Entry(key, pointValue(job.Point)), Entry(EnergyKey(key), 1)); err != nil {
					t.Fatal(err)
				}
			}
			var earlier <-chan runOutcome
			if len(tc.running) > 0 {
				earlier = runAsync(p, context.Background(), jobsAt(points, tc.running))
				await(t, "the earlier batch to reach the executor", ex.calls)
			}
			before := len(ex.held())
			if tc.closed {
				p.Shut()
			}

			jobs := jobsAt(points, tc.batch)
			done := runAsync(p, context.Background(), jobs)
			if !tc.closed { // a shut planner classifies only the store hits
				awaitPlanned(t, p, int64(len(tc.running)+len(tc.batch)))
			}
			if len(tc.groups) > 0 {
				await(t, "the batch to reach the executor", ex.calls)
			}
			var got [][]int
			for _, g := range ex.held()[before:] {
				var members []int
				for _, task := range g.Tasks {
					for j, pt := range points {
						if task.Key == Key(tinyWorkload(), pt) {
							members = append(members, j)
						}
					}
				}
				got = append(got, members)
			}
			if !reflect.DeepEqual(got, tc.groups) {
				t.Fatalf("executor was handed %v, want %v", got, tc.groups)
			}

			for _, g := range ex.held() {
				succeed(p, g)
			}
			out := awaitRun(t, "the batch", done)
			if earlier != nil {
				awaitRun(t, "the earlier batch", earlier)
			}
			if out.hits != tc.hits {
				t.Errorf("hits = %d, want %d", out.hits, tc.hits)
			}
			for i, job := range jobs {
				switch {
				case tc.closed && i >= tc.hits:
					if !errors.Is(out.errs[i], ErrClosed) {
						t.Errorf("job %d after close: err = %v, want ErrClosed", i, out.errs[i])
					}
				case out.errs[i] != nil:
					t.Errorf("job %d: %v", i, out.errs[i])
				case out.res[i].Cycles != pointValue(job.Point):
					t.Errorf("job %d: cycles %v, want %v", i, out.res[i].Cycles, pointValue(job.Point))
				}
			}
			if st := plannerStats(p); st != tc.want {
				t.Errorf("planner stats\n got %+v\nwant %+v", st, tc.want)
			}
		})
	}
}

// TestPlannerCompletionAppliedOnce delivers two different outcomes for one
// group — what a lease finishing after Abandon would do — and requires
// the first to be the only one waiters, store and counters ever see.
func TestPlannerCompletionAppliedOnce(t *testing.T) {
	ex, p := newHeldPlanner(Options{})
	points := plannerPoints()
	done := runAsync(p, context.Background(), jobsAt(points, []int{0, 1}))
	await(t, "the batch to reach the executor", ex.calls)
	g := ex.held()[0]

	succeed(p, g)
	p.Complete(g, []Result{{Cycles: -1}, {Cycles: -1}}, make([]error, 2))
	p.Fail(g, errors.New("late failure"))

	out := awaitRun(t, "the batch", done)
	for i, pt := range points[:2] {
		if out.errs[i] != nil || out.res[i].Cycles != pointValue(pt) {
			t.Errorf("job %d: (%v, %v), want the first outcome %v", i, out.res[i].Cycles, out.errs[i], pointValue(pt))
		}
		if v, _ := p.Store().get(Key(tinyWorkload(), pt)); v != pointValue(pt) {
			t.Errorf("store holds %v for point %d, want the first outcome %v", v, i, pointValue(pt))
		}
	}
	want := PlannerStats{CacheMisses: 2, SimsExecuted: 2, InstrsSimulated: 20, BinaryGroups: 1, TraceSharedSims: 2}
	if st := plannerStats(p); st != want {
		t.Errorf("planner stats\n got %+v\nwant %+v", st, want)
	}
}

// TestPlannerOpenGroups pins when a group takes a later batch's task: while no
// executor has started it. A task that joins rides the group's one completion.
func TestPlannerOpenGroups(t *testing.T) {
	points := plannerPoints()
	cases := []struct {
		name   string
		hold   bool    // the executor leaves the first batch's group open
		groups [][]int // what the executor holds once both batches are planned
		want   PlannerStats
	}{
		{
			name: "an open group takes a later batch's point", hold: true,
			groups: [][]int{{0, 1}},
			want:   PlannerStats{CacheMisses: 2, SimsExecuted: 2, InstrsSimulated: 20, BinaryGroups: 1, TraceSharedSims: 2},
		},
		{
			name:   "a started group takes nothing",
			groups: [][]int{{0}, {1}},
			want:   PlannerStats{CacheMisses: 2, SimsExecuted: 2, InstrsSimulated: 20},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, p := newHeldPlanner(Options{})
			ex.hold = tc.hold
			first := runAsync(p, context.Background(), jobsAt(points, []int{0}))
			await(t, "the first batch to reach the executor", ex.calls)
			second := runAsync(p, context.Background(), jobsAt(points, []int{1}))
			awaitPlanned(t, p, 2)
			if len(tc.groups) == 2 {
				await(t, "the second batch to reach the executor", ex.calls)
			}

			var got [][]int
			for _, g := range ex.held() {
				p.Start(g)
				var members []int
				for _, task := range g.Tasks {
					for j, pt := range points {
						if task.Key == Key(tinyWorkload(), pt) {
							members = append(members, j)
						}
					}
				}
				got = append(got, members)
				succeed(p, g)
			}
			if !reflect.DeepEqual(got, tc.groups) {
				t.Fatalf("executor holds %v, want %v", got, tc.groups)
			}
			for i, ch := range []<-chan runOutcome{first, second} {
				out := awaitRun(t, "a batch", ch)
				if out.errs[0] != nil || out.res[0].Cycles != pointValue(points[i]) {
					t.Errorf("batch %d: (%v, %v), want %v", i, out.res[0].Cycles, out.errs[0], pointValue(points[i]))
				}
			}
			if n := len(ex.calls); n != 0 {
				t.Errorf("%d more executor calls than groups", n)
			}
			if st := plannerStats(p); st != tc.want {
				t.Errorf("planner stats\n got %+v\nwant %+v", st, tc.want)
			}
		})
	}
}

// TestPlannerContexts pins whose cancellation does what. The group's context
// is the planner's: a waiter that cancels leaves alone, the first submitter
// included, and the group runs on for whoever stays. Only when the last
// waiter has gone is the group's context cancelled, and a request arriving
// after that plans a fresh task instead of joining the doomed one.
func TestPlannerContexts(t *testing.T) {
	ex, p := newHeldPlanner(Options{})
	points := plannerPoints()
	jobs := jobsAt(points, []int{0, 1})

	firstCtx, cancelFirst := context.WithCancel(context.Background())
	first := runAsync(p, firstCtx, jobs)
	await(t, "the batch to reach the executor", ex.calls)
	g := ex.held()[0]

	leaverCtx, cancelLeaver := context.WithCancel(context.Background())
	leaver := runAsync(p, leaverCtx, jobs)
	stayer := runAsync(p, context.Background(), jobs)
	awaitPlanned(t, p, 6)

	cancelLeaver()
	if out := awaitRun(t, "the leaving joiner", leaver); !errors.Is(out.errs[0], context.Canceled) {
		t.Fatalf("leaving joiner: err = %v, want its own cancellation", out.errs[0])
	}
	cancelFirst()
	if out := awaitRun(t, "the first submitter", first); !errors.Is(out.errs[0], context.Canceled) {
		t.Fatalf("first submitter: err = %v, want context.Canceled", out.errs[0])
	}
	if g.Ctx.Err() != nil {
		t.Fatal("the group's context died with a waiter still there")
	}
	succeed(p, g)
	out := awaitRun(t, "the staying joiner", stayer)
	for i, err := range out.errs {
		if err != nil || out.res[i].Cycles != pointValue(points[i]) {
			t.Errorf("staying joiner, job %d: (%v, %v), want %v", i, out.res[i].Cycles, err, pointValue(points[i]))
		}
	}
	if g.Ctx.Err() == nil {
		t.Error("the group's context outlived its completion")
	}

	// Both waiters of a second group leave, one after the other.
	lone := jobsAt(points, []int{3})
	aCtx, cancelA := context.WithCancel(context.Background())
	bCtx, cancelB := context.WithCancel(context.Background())
	a := runAsync(p, aCtx, lone)
	await(t, "the second group to reach the executor", ex.calls)
	doomed := ex.held()[1]
	b := runAsync(p, bCtx, lone)
	awaitPlanned(t, p, 8)
	cancelA()
	awaitRun(t, "the second group's submitter", a)
	if doomed.Ctx.Err() != nil {
		t.Fatal("the second group's context died with a waiter still there")
	}
	cancelB()
	awaitRun(t, "the second group's joiner", b)
	if doomed.Ctx.Err() == nil {
		t.Fatal("the group's context outlived its last waiter")
	}

	late := runAsync(p, context.Background(), lone)
	await(t, "the late request to reach the executor", ex.calls)
	fresh := ex.held()[2]
	if fresh == doomed || fresh.Ctx.Err() != nil {
		t.Fatal("a request arriving after the last waiter left joined the abandoned group")
	}
	// What every executor does with a dead group. It must not take the fresh
	// task, which has the same key, off the in-flight map with its own.
	p.Fail(doomed, doomed.Ctx.Err())
	later := runAsync(p, context.Background(), lone)
	awaitPlanned(t, p, 10)
	succeed(p, fresh)
	for name, ch := range map[string]<-chan runOutcome{"late": late, "later": later} {
		if out := awaitRun(t, "the "+name+" request", ch); out.errs[0] != nil || out.res[0].Cycles != pointValue(points[3]) {
			t.Errorf("%s request: (%v, %v), want %v", name, out.res[0].Cycles, out.errs[0], pointValue(points[3]))
		}
	}
	want := PlannerStats{CacheMisses: 4, Coalesced: 6, SimsExecuted: 3, InstrsSimulated: 30, Failures: 1, BinaryGroups: 1, TraceSharedSims: 2}
	if st := plannerStats(p); st != want {
		t.Errorf("planner stats\n got %+v\nwant %+v", st, want)
	}
}

// TestPlannerCloseFailsWaiters closes a planner whose executor never got to
// its groups: every waiter is failed with ErrClosed, and an outcome that
// turns up afterwards is dropped without touching the store.
func TestPlannerCloseFailsWaiters(t *testing.T) {
	ex, p := newHeldPlanner(Options{})
	points := plannerPoints()
	a := runAsync(p, context.Background(), jobsAt(points, []int{0, 1, 3}))
	await(t, "the first batch to reach the executor", ex.calls)
	b := runAsync(p, context.Background(), jobsAt(points, []int{1, 2}))
	await(t, "the second batch to reach the executor", ex.calls)

	if !p.Shut() || p.Shut() {
		t.Fatal("Shut must report true exactly once")
	}
	p.Abandon()
	for name, ch := range map[string]<-chan runOutcome{"first": a, "second": b} {
		out := awaitRun(t, name+" batch", ch)
		for i, err := range out.errs {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s batch, job %d: err = %v, want ErrClosed", name, i, err)
			}
		}
	}
	for _, g := range ex.held() {
		succeed(p, g)
	}
	if n := p.Store().Len(); n != 0 {
		t.Errorf("store has %d entries after outcomes arrived for abandoned groups", n)
	}
	if st := plannerStats(p); st.Failures != 4 || st.SimsExecuted != 0 {
		t.Errorf("failures=%d sims=%d, want 4/0", st.Failures, st.SimsExecuted)
	}
}

// TestPlannerRetriesTransientJournalError points the store's journal at a
// full device: a group's append is one write, retried as a unit three times
// and counted once per try, and the results still reach the
// waiter and the in-memory store — a broken journal costs durability, not
// correctness.
func TestPlannerRetriesTransientJournalError(t *testing.T) {
	points := plannerPoints()
	for _, tc := range []struct {
		name  string
		batch []int
	}{
		{"one point", []int{3}},
		{"a group of three", []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
			if err != nil {
				t.Skipf("no /dev/full to fail writes with: %v", err)
			}
			store, err := Open(filepath.Join(t.TempDir(), "store.json"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			store.journal.Close()
			store.journal = full

			ex, p := newHeldPlanner(Options{Store: store})
			done := runAsync(p, context.Background(), jobsAt(points, tc.batch))
			await(t, "the batch to reach the executor", ex.calls)
			succeed(p, ex.held()[0])

			out := awaitRun(t, "the batch", done)
			for i, j := range tc.batch {
				if out.errs[i] != nil || out.res[i].Cycles != pointValue(points[j]) {
					t.Errorf("result (%v, %v) did not survive the journal failure", out.res[i].Cycles, out.errs[i])
				}
				if _, ok := store.get(Key(tinyWorkload(), points[j])); !ok {
					t.Errorf("point %d missing from the in-memory store", j)
				}
			}
			if st := plannerStats(p); st.Retries != 4 {
				t.Errorf("Retries = %d, want 4 (one append, three retries, all failed)", st.Retries)
			}
		})
	}
}
