package farm

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

	// A fresh point on group A's binary is a compile-cache hit.
	extra := jointPoint(compiler.O2(), func() sim.Config {
		c := sim.DefaultConfig()
		c.L2Lat = 16
		return c
	}())
	if _, err := f.Do(context.Background(), Job{Workload: w, Point: extra}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CompileCacheHits != 1 {
		t.Errorf("CompileCacheHits = %d, want 1 after reusing a cached binary", st.CompileCacheHits)
	}
}

// TestGroupCompileFailureNoPoison injects one compile failure into a
// shared-binary group: every member of the group reports the permanent
// error, other work in the batch is unaffected, and the failure is not
// cached — resubmitting the points compiles afresh and succeeds with
// results identical to the serial path.
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
	var failed atomic.Int64
	f.compile = func(cw workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
		if BinaryKey(cw, p) == badKey && failed.CompareAndSwap(0, 1) {
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
		if Classify(errs[i]) != ClassPermanent {
			t.Errorf("group point %d: Classify = %v, want ClassPermanent", i, Classify(errs[i]))
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

// TestCallersShareOneGroup is the sharing every caller of the planner gets:
// seven callers, one point each on one binary, arrive while the farm's only
// worker is held inside another compile. Their tasks meet in one open group,
// which the worker compiles once and interprets once when it gets there, and
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
		if _, err := f.Do(context.Background(), Job{Workload: w, Point: blocker}); err != nil {
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

// TestCustomMeasureDisablesGrouping pins the planner's scope: a farm with a
// caller-supplied MeasureFunc owns its whole pipeline, so batches run one
// job at a time and the sharing counters stay zero.
func TestCustomMeasureDisablesGrouping(t *testing.T) {
	var calls atomic.Int64
	f := New(Options{
		Workers: 2,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			calls.Add(1)
			return Result{Cycles: pointValue(job.Point), Energy: 1, Instructions: 1}, nil
		},
	})
	defer f.Close()
	w := tinyWorkload()
	points := mixedBatch()
	if _, err := f.MeasureBatch(context.Background(), w, points, Cycles); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 10 {
		t.Errorf("measure calls = %d, want 10 unique points", got)
	}
	st := f.Stats()
	if st.BinaryGroups != 0 || st.TraceSharedSims != 0 || st.CompileCacheMisses != 0 {
		t.Errorf("sharing counters moved under a custom executor: %+v", st)
	}
}

// TestBatchStatsConsistentUnderLoad hammers the real batch pipeline while
// readers assert the sharing counters are never observed torn: trace-shared
// sims can't exceed total sims, groups can't exceed compile-cache traffic
// (each group performs exactly one cached compile), and completions can't
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
	// The Constrained points are singletons (no other task shares their
	// binary), so they run through the translated engine and its counters
	// must have moved.
	if st.BlocksTranslated == 0 || st.TranslatedInstrs == 0 {
		t.Fatalf("singleton sims did not use the translated engine: %+v", st)
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
