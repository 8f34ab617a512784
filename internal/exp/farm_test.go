package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestParallelBuildDatasetBitIdentical is the farm's determinism guarantee
// (DESIGN.md, "internal/farm"): a parallel BuildDataset must produce a dataset
// bit-for-bit identical to the serial path, because results are keyed by
// point and assembly is in input order. Run under -race this also exercises
// the farm's synchronization on real measurement work.
func TestParallelBuildDatasetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("Quick-scale dataset rebuild in -short mode")
	}
	w := workloads.MustGet("179.art", workloads.Train)
	build := func(workers int) ([][]float64, []float64) {
		h := NewHarness(Quick)
		h.Workers = workers
		defer h.Close()
		ds, err := h.BuildDataset(w, h.TrainDesign())
		if err != nil {
			t.Fatal(err)
		}
		return ds.X, ds.Y
	}
	xs1, ys1 := build(1)
	xs8, ys8 := build(8)
	if len(ys1) != Quick.TrainPoints || len(ys8) != len(ys1) {
		t.Fatalf("dataset sizes: %d vs %d", len(ys1), len(ys8))
	}
	for i := range ys1 {
		if ys1[i] != ys8[i] {
			t.Fatalf("response %d differs: serial %v vs parallel %v", i, ys1[i], ys8[i])
		}
		for j := range xs1[i] {
			if xs1[i][j] != xs8[i][j] {
				t.Fatalf("predictor [%d][%d] differs: %v vs %v", i, j, xs1[i][j], xs8[i][j])
			}
		}
	}
}

// TestConcurrentMeasureSingleExecution verifies the duplicate-measurement
// race fix: hammering the same point from many goroutines performs exactly
// one simulation.
func TestConcurrentMeasureSingleExecution(t *testing.T) {
	h := NewHarness(tinyScale)
	defer h.Close()
	w := workloads.MustGet("179.art", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	const callers = 12
	vals := make(chan float64, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			v, err := measureOne(h.Farm(), w, p, farm.Cycles)
			vals <- v
			errs <- err
		}()
	}
	var first float64
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		v := <-vals
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("caller %d saw %v, first saw %v", i, v, first)
		}
	}
	if st := h.FarmStats(); st.SimsExecuted != 1 {
		t.Fatalf("%d concurrent callers caused %d simulations, want 1", callers, st.SimsExecuted)
	}
}

// TestCorruptCacheRecovers asserts the harness starts fresh (rather than
// failing or silently mixing in garbage) when the cache checkpoint is
// corrupt, and that the subsequent SaveCache repairs the file.
func TestCorruptCacheRecovers(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale
	path := filepath.Join(dir, "measurements-"+sc.Name+".json")
	if err := os.WriteFile(path, []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(sc)
	h.CacheDir = dir
	defer h.Close()
	w := workloads.MustGet("256.bzip2", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O0()), doe.FromConfig(sim.Constrained()))
	v, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SaveCache(); err != nil {
		t.Fatal(err)
	}
	h2 := NewHarness(sc)
	h2.CacheDir = dir
	defer h2.Close()
	v2, err := measureOne(h2.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if v != v2 {
		t.Fatalf("repaired cache disagrees: %v vs %v", v, v2)
	}
	if st := h2.FarmStats(); st.SimsExecuted != 0 {
		t.Fatalf("repaired cache missed: %d simulations", st.SimsExecuted)
	}
}

// TestJournalSurvivesWithoutSaveCache asserts crash-safety of the result
// store: a measurement is durable the moment it completes (via the journal),
// even if the process dies before any SaveCache checkpoint.
func TestJournalSurvivesWithoutSaveCache(t *testing.T) {
	dir := t.TempDir()
	h := NewHarness(tinyScale)
	h.CacheDir = dir
	w := workloads.MustGet("256.bzip2", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.Aggressive()))
	v, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	// No SaveCache, no Close: simulate a crash here.
	h2 := NewHarness(tinyScale)
	h2.CacheDir = dir
	defer h2.Close()
	v2, err := measureOne(h2.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if v != v2 {
		t.Fatalf("journal lost measurement: %v vs %v", v, v2)
	}
	if st := h2.FarmStats(); st.SimsExecuted != 0 {
		t.Fatalf("journal replay missed: %d simulations re-ran", st.SimsExecuted)
	}
}

// TestFailedJobDoesNotPoisonKey asserts the error path of a batch through the
// harness's Measure seam: a job that fails in DoJobs reports its error in its
// slot and must not leave its dedup key in a state where a later Measure for
// the same point gets the stale error (or, worse, hangs). Failures are not
// persisted to the store and the in-flight entry is removed on completion, so
// the retry must re-execute and succeed.
func TestFailedJobDoesNotPoisonKey(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var executions atomic.Int64
	h := NewHarness(tinyScale)
	h.Measure = func(ctx context.Context, job farm.Job) (farm.Result, error) {
		executions.Add(1)
		if fail.Load() {
			return farm.Result{}, &farm.CompileError{Workload: job.Workload.Key(), Err: errors.New("injected")}
		}
		return farm.Result{Cycles: 42, Energy: 7, Instructions: 1}, nil
	}
	defer h.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	jobs := []farm.Job{{Workload: w, Point: p}}

	var ce *farm.CompileError
	if _, errs := h.Farm().DoJobs(context.Background(), jobs); !errors.As(errs[0], &ce) {
		t.Fatalf("failed job reported %v, want the injected compile error", errs[0])
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("the batch ran %d executions, want 1", n)
	}
	if st := h.FarmStats(); st.Failures != 1 {
		t.Fatalf("failure not counted: %+v", st)
	}
	if e := h.Farm().Store().Entries(); len(e) != 0 {
		t.Fatalf("failed job left %d entries in the store", len(e))
	}

	fail.Store(false)
	v, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatalf("measure after the failed batch: %v", err)
	}
	if v != 42 {
		t.Fatalf("measure got %v, want 42", v)
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("retry after failure ran %d total executions, want 2", n)
	}

	// And the success is now cached: no third execution.
	if _, err := measureOne(h.Farm(), w, p, farm.Cycles); err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("cached remeasure re-executed: %d executions", n)
	}
}
