package farm

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// tinySource is a synthetic MiniC workload small enough that a real
// compile+simulate runs in a few milliseconds — batch tests exercise the
// genuine pipeline without the cost of the benchmark suite.
const tinySource = `
int seed = 12345;
int rnd() {
	seed = (seed * 1103515245 + 12345) & 2147483647;
	return seed >> 7;
}
int data[1024];
int main() {
	int n = 1024;
	for (int i = 0; i < n; i = i + 1) {
		data[i] = rnd() % 256;
	}
	int sum = 0;
	for (int r = 0; r < 6; r = r + 1) {
		for (int i = 0; i < n; i = i + 1) {
			int v = data[(i * 7 + r) % n];
			if (v % 3 == 0) {
				sum = sum + v;
			} else {
				sum = sum ^ (v + r);
			}
		}
	}
	return sum & 1073741823;
}
`

func tinyWorkload() workloads.Workload {
	return workloads.Workload{Name: "900.tiny", Input: "test", Class: workloads.Train, Source: tinySource}
}

// jointPoint builds a full joint-space point from compiler options and a
// simulator configuration.
func jointPoint(opts compiler.Options, cfg sim.Config) doe.Point {
	return doe.JoinPoint(doe.FromOptions(opts), doe.FromConfig(cfg))
}

// mixedBatch builds the canonical mixed batch: two shared-binary groups
// (one per flag set and issue width), two singletons, and one duplicate
// point. Returns the points and the index of the duplicate's original.
func mixedBatch() []doe.Point {
	o2, o3 := compiler.O2(), compiler.O3()
	wide := sim.DefaultConfig() // issue width 4
	wideVariant := func(mut func(*sim.Config)) sim.Config {
		c := wide
		mut(&c)
		return c
	}
	narrow := sim.Constrained() // issue width 2
	narrowVariant := func(mut func(*sim.Config)) sim.Config {
		c := narrow
		mut(&c)
		return c
	}
	return []doe.Point{
		// Group A: O2 flags, issue width 4, five microarch variants.
		jointPoint(o2, wide),
		jointPoint(o2, sim.Aggressive()),
		jointPoint(o2, wideVariant(func(c *sim.Config) { c.MemLat = 150 })),
		jointPoint(o2, wideVariant(func(c *sim.Config) { c.BPredSize = 512 })),
		jointPoint(o2, wideVariant(func(c *sim.Config) { c.L2KB = 256; c.L2Lat = 6 })),
		// Group B: O3 flags, issue width 2, three microarch variants.
		jointPoint(o3, narrow),
		jointPoint(o3, narrowVariant(func(c *sim.Config) { c.DCacheKB = 64 })),
		jointPoint(o3, narrowVariant(func(c *sim.Config) { c.MemLat = 120 })),
		// Singletons: unique (flags, issue width) binaries.
		jointPoint(o2, narrowVariant(func(c *sim.Config) { c.ICacheKB = 16 })),
		jointPoint(o3, wideVariant(func(c *sim.Config) { c.RUUSize = 32 })),
		// Duplicate of the first group-A point: coalesces in flight.
		jointPoint(o2, wide),
	}
}

// TestMeasureBatchGroupedMatchesSerial is the farm-level identity test: a
// mixed batch (shared-binary groups, singletons, an in-batch duplicate)
// through the batch planner returns per-point results bit-for-bit equal to
// the plain per-job executor, for both responses, and the sharing counters
// add up.
func TestMeasureBatchGroupedMatchesSerial(t *testing.T) {
	w := tinyWorkload()
	points := mixedBatch()

	// Reference: the pre-batch path, one independent compile+simulate per
	// point.
	serial := Executor(0)
	want := make([]Result, len(points))
	for i, p := range points {
		res, err := serial(context.Background(), Job{Workload: w, Point: p})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	f := New(Options{Workers: 4})
	defer f.Close()
	cycles, err := f.MeasureBatch(context.Background(), w, points, Cycles)
	if err != nil {
		t.Fatal(err)
	}
	energy, err := f.MeasureBatch(context.Background(), w, points, Energy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if cycles[i] != want[i].Cycles || energy[i] != want[i].Energy {
			t.Errorf("point %d: grouped (%v cycles, %v energy) != serial (%v, %v)",
				i, cycles[i], energy[i], want[i].Cycles, want[i].Energy)
		}
	}

	st := f.Stats()
	if st.BinaryGroups != 2 {
		t.Errorf("BinaryGroups = %d, want 2", st.BinaryGroups)
	}
	if st.TraceSharedSims != 8 {
		t.Errorf("TraceSharedSims = %d, want 8 (5 + 3 grouped points)", st.TraceSharedSims)
	}
	// 4 distinct binaries: (O2,w4), (O3,w2), (O2,w2), (O3,w4).
	if st.CompileCacheMisses != 4 {
		t.Errorf("CompileCacheMisses = %d, want 4", st.CompileCacheMisses)
	}
	if st.SimsExecuted != 10 {
		t.Errorf("SimsExecuted = %d, want 10 unique points", st.SimsExecuted)
	}
	if st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1 (in-batch duplicate)", st.Coalesced)
	}

	// Every point looks its binary up: the first of each binary misses and
	// the other grouped points hit, 4 in group A and 2 in group B.
	if st.CompileCacheHits != 6 {
		t.Errorf("CompileCacheHits = %d, want 6 (one per grouped point after the first)", st.CompileCacheHits)
	}

	// A fresh point on group A's binary is a compile-cache hit.
	extra := jointPoint(compiler.O2(), func() sim.Config {
		c := sim.DefaultConfig()
		c.L2Lat = 16
		return c
	}())
	if _, err := doOne(f, Job{Workload: w, Point: extra}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CompileCacheHits != 7 {
		t.Errorf("CompileCacheHits = %d, want 7 after reusing a cached binary", st.CompileCacheHits)
	}
}

// TestLoneTaskIsAGroupOfOne pins the default executor's one path: a point
// alone with its binary runs as a group of one, its Result equal to
// Executor's bit for bit, and it counts as a dispatched group, while the
// sharing counters (groups of two or more) stay put.
func TestLoneTaskIsAGroupOfOne(t *testing.T) {
	w := tinyWorkload()
	job := Job{Workload: w, Point: jointPoint(compiler.O3(), sim.Constrained())}
	want, err := Executor(0)(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Options{Workers: 2})
	defer f.Close()
	got, err := doOne(f, job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.Instructions != want.Instructions {
		t.Errorf("lone task %+v, Executor %+v", got, want)
	}
	st := f.Stats()
	if st.GroupsDispatched != 1 || st.CompileCacheMisses != 1 || st.SimsExecuted != 1 {
		t.Errorf("dispatched=%d compiles=%d sims=%d, want 1/1/1",
			st.GroupsDispatched, st.CompileCacheMisses, st.SimsExecuted)
	}
	if st.BinaryGroups != 0 || st.TraceSharedSims != 0 {
		t.Errorf("a lone point moved the sharing counters: groups=%d shared=%d", st.BinaryGroups, st.TraceSharedSims)
	}
}

// TestGroupCompileFailureNoPoison makes one shared-binary group's compile
// fail for the first batch: every member of the group reports the permanent
// error, other work in the batch is unaffected, and the failure is not
// cached — resubmitting the points compiles afresh and succeeds with
// results identical to the serial path. The failure lasts the whole batch
// because the group keeps its first CompileError: a point that starts after
// the failed build takes that error instead of compiling again.
func TestGroupCompileFailureNoPoison(t *testing.T) {
	w := tinyWorkload()
	o2 := compiler.O2()
	wide := sim.DefaultConfig()
	groupPts := []doe.Point{
		jointPoint(o2, wide),
		jointPoint(o2, sim.Aggressive()),
		jointPoint(o2, func() sim.Config {
			c := wide
			c.MemLat = 50
			return c
		}()),
	}
	loner := jointPoint(compiler.O3(), sim.Constrained())
	points := append(append([]doe.Point{}, groupPts...), loner)

	f := New(Options{Workers: 2})
	defer f.Close()
	badKey := BinaryKey(w, groupPts[0])
	var failing atomic.Bool
	failing.Store(true)
	f.compile = func(cw workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
		if BinaryKey(cw, p) == badKey && failing.Load() {
			return nil, &CompileError{Workload: cw.Key(), Err: context.DeadlineExceeded}
		}
		return defaultCompile(cw, p, cfg)
	}

	jobs := make([]Job, len(points))
	for i, p := range points {
		jobs[i] = Job{Workload: w, Point: p}
	}
	res, errs := f.DoJobs(context.Background(), jobs)
	for i := range groupPts {
		if errs[i] == nil {
			t.Fatalf("group point %d: expected injected compile failure", i)
		}
		var ce *CompileError
		if !errors.As(errs[i], &ce) {
			t.Errorf("group point %d: %v is not a CompileError", i, errs[i])
		}
	}
	if errs[len(points)-1] != nil {
		t.Fatalf("singleton failed alongside the injected group failure: %v", errs[len(points)-1])
	}
	st := f.Stats()
	if st.Failures != 3 {
		t.Errorf("Failures = %d, want 3 (one per group member)", st.Failures)
	}

	// Resubmit: the failed compile must not have been cached.
	failing.Store(false)
	res, errs = f.DoJobs(context.Background(), jobs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("resubmitted point %d failed: %v (binary cache poisoned?)", i, err)
		}
		if res[i].Cycles == 0 {
			t.Fatalf("resubmitted point %d returned empty result", i)
		}
	}
	serial := Executor(0)
	for i, p := range points {
		ref, err := serial(context.Background(), Job{Workload: w, Point: p})
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Cycles != ref.Cycles || res[i].Energy != ref.Energy {
			t.Errorf("point %d after retry: (%v, %v) != serial (%v, %v)",
				i, res[i].Cycles, res[i].Energy, ref.Cycles, ref.Energy)
		}
	}
}

// TestCompileFailureFailsGroupOnce holds a failed build to one compile per
// group: at one slot the points of a 3-point group run one after another,
// and the two after the failure take its error instead of compiling again,
// so the farm logs one line for the three. The next batch compiles afresh.
func TestCompileFailureFailsGroupOnce(t *testing.T) {
	w := tinyWorkload()
	points := make([]doe.Point, 3)
	for i := range points {
		cfg := sim.DefaultConfig()
		cfg.MemLat = 60 + 10*i
		points[i] = jointPoint(compiler.O2(), cfg)
	}
	jobs := make([]Job, len(points))
	for i, p := range points {
		jobs[i] = Job{Workload: w, Point: p}
	}
	var log strings.Builder // written before the group completes, read after
	f := New(Options{Workers: 1, Log: &log})
	defer f.Close()
	var compiles atomic.Int64
	f.compile = func(cw workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
		compiles.Add(1)
		return nil, errors.New("injected")
	}

	for batch := int64(1); batch <= 2; batch++ {
		_, errs := f.DoJobs(context.Background(), jobs)
		for i, err := range errs {
			if !errors.As(err, new(*CompileError)) {
				t.Fatalf("batch %d point %d: %v, want a CompileError", batch, i, err)
			}
		}
		if n := compiles.Load(); n != batch {
			t.Errorf("after batch %d: %d compiles, want %d", batch, n, batch)
		}
		if n := strings.Count(log.String(), "permanent failure (3 points)"); n != int(batch) ||
			strings.Count(log.String(), "\n") != int(batch) {
			t.Errorf("after batch %d, log:\n%s\nwant one permanent-failure line per batch", batch, log.String())
		}
	}
}

// TestWorkersBoundMeasuresInFlight holds the farm to one concurrency bound:
// however many cores the runtime has, Workers is the most Measure calls in
// flight, over a batch whose groups have five and three points. Each slot
// reports the points it measured.
func TestWorkersBoundMeasuresInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{1, 2} {
		var inFlight, peak atomic.Int64
		f := New(Options{Workers: workers, Measure: func(ctx context.Context, job Job) (Result, error) {
			n := inFlight.Add(1)
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return Result{Cycles: pointValue(job.Point), Energy: 1, Instructions: 1}, nil
		}})
		if _, err := f.MeasureBatch(context.Background(), tinyWorkload(), mixedBatch(), Cycles); err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		f.Close()
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("Workers %d: %d Measure calls in flight at once", workers, p)
		}
		var jobs int64
		for _, pw := range st.PerWorker {
			jobs += pw.Jobs
		}
		if len(st.PerWorker) != workers || jobs != 10 {
			t.Errorf("Workers %d: %d slots measured %d points, want %d slots and 10", workers, len(st.PerWorker), jobs, workers)
		}
	}
}

// TestOverCapPointFailsAlone puts a valid point and one whose L1D is above
// sim.Config.Validate's cap in one shared-binary group: the bad point fails
// with the cap error as its own SimError, and the valid one reads the cycles
// and energy of its lone run, bit for bit.
func TestOverCapPointFailsAlone(t *testing.T) {
	w := tinyWorkload()
	valid := jointPoint(compiler.O2(), sim.DefaultConfig())
	bigL1 := sim.DefaultConfig()
	bigL1.DCacheKB = 1<<16 + 1
	want, err := Executor(0)(context.Background(), Job{Workload: w, Point: valid})
	if err != nil {
		t.Fatal(err)
	}
	f := New(Options{Workers: 1})
	defer f.Close()
	res, errs := f.DoJobs(context.Background(), []Job{
		{Workload: w, Point: valid},
		{Workload: w, Point: jointPoint(compiler.O2(), bigL1)},
	})
	if errs[0] != nil {
		t.Fatalf("the valid point failed with its group: %v", errs[0])
	}
	if math.Float64bits(res[0].Cycles) != math.Float64bits(want.Cycles) ||
		math.Float64bits(res[0].Energy) != math.Float64bits(want.Energy) {
		t.Errorf("valid point %+v in the group, %+v alone", res[0], want)
	}
	var se *SimError
	if !errors.As(errs[1], &se) || !strings.Contains(errs[1].Error(), "cache sizes") {
		t.Errorf("over-cap point: %v, want a SimError naming the cache sizes", errs[1])
	}
	if st := f.Stats(); st.BinaryGroups != 1 || st.SimsExecuted != 1 || st.Failures != 1 {
		t.Errorf("groups=%d sims=%d failures=%d, want 1/1/1", st.BinaryGroups, st.SimsExecuted, st.Failures)
	}
}

// TestCallersShareOneGroup is the sharing every caller of the planner gets:
// seven callers, one point each on one binary, arrive while the farm's only
// worker is held inside another compile. Their tasks meet in one open group,
// which the worker compiles once when it gets there, and
// every caller's values are the serial executor's, bit for bit.
func TestCallersShareOneGroup(t *testing.T) {
	w := tinyWorkload()
	blocker := jointPoint(compiler.O3(), sim.Constrained())
	points := make([]doe.Point, 7)
	for i := range points {
		cfg := sim.DefaultConfig()
		cfg.MemLat = 60 + 10*i
		points[i] = jointPoint(compiler.O2(), cfg)
	}

	f := New(Options{Workers: 1})
	defer f.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var shared atomic.Int64 // compiles of the seven points' binary
	f.compile = func(cw workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
		if BinaryKey(cw, p) == BinaryKey(w, blocker) {
			close(entered)
			<-gate
		} else {
			shared.Add(1)
		}
		return defaultCompile(cw, p, cfg)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := doOne(f, Job{Workload: w, Point: blocker}); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the one worker is busy
	got := make([]Result, len(points))
	for i, p := range points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, errs := f.DoJobs(context.Background(), []Job{{Workload: w, Point: p}})
			if errs[0] != nil {
				t.Error(errs[0])
			}
			got[i] = res[0]
		}()
	}
	awaitPlanned(t, f.Planner, int64(1+len(points)))
	close(gate)
	wg.Wait()

	serial := Executor(0)
	for i, p := range points {
		want, err := serial(context.Background(), Job{Workload: w, Point: p})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i].Cycles) != math.Float64bits(want.Cycles) ||
			math.Float64bits(got[i].Energy) != math.Float64bits(want.Energy) {
			t.Errorf("caller %d: shared (%v, %v) != serial (%v, %v)", i, got[i].Cycles, got[i].Energy, want.Cycles, want.Energy)
		}
	}
	if n := shared.Load(); n != 1 {
		t.Errorf("%d compiles of the shared binary, want 1", n)
	}
	if st := f.Stats(); st.BinaryGroups != 1 || st.TraceSharedSims != 7 || st.SimsExecuted != 8 {
		t.Errorf("groups=%d shared=%d sims=%d, want 1/7/8", st.BinaryGroups, st.TraceSharedSims, st.SimsExecuted)
	}
}

// TestStubMeasureIsPlannedLikeDefault pins the one executor path: a farm
// with a caller-supplied MeasureFunc plans the mixed batch into the same
// shared-binary groups as the default executor, so its planner and dispatch
// counters read the same.
func TestStubMeasureIsPlannedLikeDefault(t *testing.T) {
	type plan struct{ misses, coalesced, sims, groups, shared, dispatched int64 }
	planOf := func(opts Options) plan {
		f := New(opts)
		defer f.Close()
		if _, err := f.MeasureBatch(context.Background(), tinyWorkload(), mixedBatch(), Cycles); err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		return plan{st.CacheMisses, st.Coalesced, st.SimsExecuted, st.BinaryGroups, st.TraceSharedSims, st.GroupsDispatched}
	}
	var calls atomic.Int64
	stub := planOf(Options{Workers: 2, Measure: func(ctx context.Context, job Job) (Result, error) {
		calls.Add(1)
		return Result{Cycles: pointValue(job.Point), Energy: 1, Instructions: 1}, nil
	}})
	if got := calls.Load(); got != 10 {
		t.Errorf("measure calls = %d, want 10 unique points", got)
	}
	want := plan{misses: 10, coalesced: 1, sims: 10, groups: 2, shared: 8, dispatched: 4}
	if stub != want {
		t.Errorf("stub executor planned %+v, want %+v", stub, want)
	}
	if def := planOf(Options{Workers: 2}); def != stub {
		t.Errorf("default executor planned %+v, stub %+v", def, stub)
	}
}

// TestBatchStatsConsistentUnderLoad hammers the real batch pipeline while
// readers assert the sharing counters are never observed torn: trace-shared
// sims can't exceed total sims, groups can't exceed compile-cache traffic
// (each point of a group looks its binary up once), and completions can't
// outrun misses.
func TestBatchStatsConsistentUnderLoad(t *testing.T) {
	f := New(Options{Workers: 4})
	defer f.Close()
	w := tinyWorkload()

	stop := make(chan struct{})
	torn := make(chan string, 1)
	report := func(msg string) {
		select {
		case torn <- msg:
		default:
		}
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := f.Stats()
				if st.TraceSharedSims > st.SimsExecuted {
					report("torn snapshot: more shared sims than sims")
					return
				}
				if st.BinaryGroups > st.CompileCacheHits+st.CompileCacheMisses {
					report("torn snapshot: more groups than cached compiles")
					return
				}
				if st.SimsExecuted+st.Failures > st.CacheMisses {
					report("torn snapshot: more completions than misses")
					return
				}
			}
		}()
	}

	o2, o3 := compiler.O2(), compiler.O3()
	variants := []sim.Config{sim.DefaultConfig(), sim.Aggressive(), sim.Constrained()}
	for round := 0; round < 3; round++ {
		var points []doe.Point
		for i, cfg := range variants {
			cfg.MemLat = 50 + 5*((round+i)%21)
			points = append(points, jointPoint(o2, cfg), jointPoint(o3, cfg))
		}
		if _, err := f.MeasureBatch(context.Background(), w, points, Cycles); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	st := f.Stats()
	if st.BinaryGroups == 0 || st.TraceSharedSims == 0 {
		t.Fatalf("no shared groups executed: %+v", st)
	}
}

// TestBinaryKeyCoversIssueWidth guards the subtle half of binary identity:
// the compiler's scheduler is parameterized by the target issue width taken
// from the microarchitecture block, so two points with identical flag
// subvectors but different issue widths must NOT share a binary.
func TestBinaryKeyCoversIssueWidth(t *testing.T) {
	w := tinyWorkload()
	o2 := compiler.O2()
	a := BinaryKey(w, jointPoint(o2, sim.DefaultConfig())) // width 4
	b := BinaryKey(w, jointPoint(o2, sim.Constrained()))   // width 2
	if a == b {
		t.Fatal("binary keys collide across issue widths")
	}
	c := BinaryKey(w, jointPoint(o2, func() sim.Config {
		cfg := sim.DefaultConfig()
		cfg.MemLat = 150 // timing-only knob: same binary
		return cfg
	}()))
	if a != c {
		t.Fatal("timing-only microarch change altered the binary key")
	}
	if !strings.Contains(a, w.Key()) {
		t.Fatalf("binary key %q does not embed the workload key", a)
	}
}
