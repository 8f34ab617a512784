package farm

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func testJob(seed int64) Job {
	rng := rand.New(rand.NewSource(seed))
	return Job{
		Workload: workloads.MustGet("179.art", workloads.Train),
		Point:    doe.JointSpace().RandomPoint(rng),
	}
}

// pointValue derives a deterministic fake measurement from a point so stub
// executors behave like the real (deterministic) pipeline.
func pointValue(p doe.Point) float64 {
	v := 1.0
	for _, x := range p {
		v = v*31 + float64(x)
	}
	return v
}

func TestSingleFlightDedup(t *testing.T) {
	const callers = 16
	gate := make(chan struct{})
	var executions atomic.Int64
	f := New(Options{
		Workers: 4,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			executions.Add(1)
			<-gate
			return Result{Cycles: pointValue(job.Point), Energy: 1}, nil
		},
	})
	defer f.Close()

	job := testJob(1)
	results := make(chan float64, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			v, err := f.Measure(context.Background(), job.Workload, job.Point, Cycles)
			results <- v
			errs <- err
		}()
	}
	// Wait until every caller has either queued the job or joined it, then
	// release the (single) execution.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.CacheMisses+st.Coalesced == callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("callers never coalesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	want := pointValue(job.Point)
	for i := 0; i < callers; i++ {
		if v := <-results; v != want {
			t.Fatalf("caller %d got %v, want %v", i, v, want)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("expected exactly 1 execution for %d concurrent callers, got %d", callers, n)
	}
	st := f.Stats()
	if st.CacheMisses != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats: misses=%d coalesced=%d, want 1/%d", st.CacheMisses, st.Coalesced, callers-1)
	}

	// A later request for the same point is a store hit, not an execution.
	if _, err := f.Measure(context.Background(), job.Workload, job.Point, Energy); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CacheHits != 1 {
		t.Fatalf("expected 1 cache hit after completion, got %d", st.CacheHits)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("cache hit re-executed: %d executions", n)
	}
}

// TestConcurrentBatchesExecuteOnce submits the same points from two callers
// at once, over and over: whichever of the two a point's completion falls
// between, the other must find it in flight or in the store — the two checks
// are made under one hold of the planner's lock — and never execute it again.
func TestConcurrentBatchesExecuteOnce(t *testing.T) {
	w := workloads.MustGet("179.art", workloads.Train)
	points := doe.JointSpace().LatinHypercube(30, rand.New(rand.NewSource(11)))
	jobs := make([]Job, len(points))
	for i, p := range points {
		jobs[i] = Job{Workload: w, Point: p}
	}
	for round := 0; round < 200; round++ {
		var executions atomic.Int64
		f := New(Options{
			Workers: 4,
			Measure: func(ctx context.Context, job Job) (Result, error) {
				executions.Add(1)
				return Result{Cycles: pointValue(job.Point), Energy: 1, Instructions: 1}, nil
			},
		})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, errs := f.DoJobs(context.Background(), jobs)
				for i, err := range errs {
					if err != nil || res[i].Cycles != pointValue(points[i]) {
						t.Errorf("round %d, job %d: (%v, %v)", round, i, res[i].Cycles, err)
					}
				}
			}()
		}
		wg.Wait()
		st := f.Stats()
		f.Close()
		if n := executions.Load(); n != int64(len(points)) {
			t.Fatalf("round %d: %d executions for %d points submitted twice", round, n, len(points))
		}
		if n := st.CacheHits + st.Coalesced + st.CacheMisses; n != int64(2*len(points)) {
			t.Fatalf("round %d: %d requests classified, want %d: %+v", round, n, 2*len(points), st)
		}
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	var attempts atomic.Int64
	f := New(Options{
		Workers:    1,
		MaxRetries: 3,
		RetryDelay: time.Millisecond,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			if attempts.Add(1) <= 2 {
				return Result{}, Transient(errors.New("flaky io"))
			}
			return Result{Cycles: 7, Energy: 3}, nil
		},
	})
	defer f.Close()
	v, err := f.Measure(context.Background(), testJob(2).Workload, testJob(2).Point, Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 || attempts.Load() != 3 {
		t.Fatalf("v=%v attempts=%d, want 7/3", v, attempts.Load())
	}
	if st := f.Stats(); st.Retries != 2 {
		t.Fatalf("retries=%d, want 2", st.Retries)
	}
}

func TestTransientRetryExhausts(t *testing.T) {
	var attempts atomic.Int64
	f := New(Options{
		Workers:    1,
		MaxRetries: 2,
		RetryDelay: time.Millisecond,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			attempts.Add(1)
			return Result{}, Transient(errors.New("disk on fire"))
		},
	})
	defer f.Close()
	_, err := f.Measure(context.Background(), testJob(3).Workload, testJob(3).Point, Cycles)
	if err == nil {
		t.Fatal("expected error after retry budget exhausted")
	}
	if attempts.Load() != 3 { // 1 try + 2 retries
		t.Fatalf("attempts=%d, want 3", attempts.Load())
	}
	if st := f.Stats(); st.Failures != 1 {
		t.Fatalf("failures=%d, want 1", st.Failures)
	}
}

func TestPermanentFailsFast(t *testing.T) {
	var attempts atomic.Int64
	f := New(Options{
		Workers:    1,
		MaxRetries: 5,
		RetryDelay: time.Millisecond,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			attempts.Add(1)
			return Result{}, &CompileError{Workload: job.Workload.Key(), Err: errors.New("syntax error")}
		},
	})
	defer f.Close()
	_, err := f.Measure(context.Background(), testJob(4).Workload, testJob(4).Point, Cycles)
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CompileError, got %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("permanent error retried: %d attempts", attempts.Load())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{&CompileError{Workload: "w", Err: errors.New("x")}, ClassPermanent},
		{&SimError{Workload: "w", Budget: true, Err: errors.New("x")}, ClassBudget},
		{&SimError{Workload: "w", Err: errors.New("fault")}, ClassPermanent},
		{Transient(errors.New("x")), ClassTransient},
		{&fs.PathError{Op: "write", Path: "j", Err: errors.New("x")}, ClassTransient},
		{context.Canceled, ClassPermanent},
		{context.DeadlineExceeded, ClassPermanent},
		{errors.New("mystery"), ClassPermanent},
		{fmt.Errorf("wrapped: %w", &SimError{Budget: true}), ClassBudget},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestContextCancellationDrains(t *testing.T) {
	started := make(chan struct{}, 64)
	f := New(Options{
		Workers: 2,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			started <- struct{}{}
			<-ctx.Done() // simulate a long job that honours cancellation
			return Result{}, ctx.Err()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	w := workloads.MustGet("179.art", workloads.Train)
	rng := rand.New(rand.NewSource(5))
	var points []doe.Point
	for i := 0; i < 8; i++ {
		points = append(points, doe.JointSpace().RandomPoint(rng))
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.MeasureBatch(ctx, w, points, Cycles)
		done <- err
	}()
	<-started // at least one job is running
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not return after cancellation")
	}
	// Workers must drain cleanly: queued-but-unstarted jobs observe the
	// cancelled context and finish without executing, so Close returns.
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain workers after cancellation")
	}
}

func TestMeasureBatchOrderAndValues(t *testing.T) {
	f := New(Options{
		Workers: 8,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			return Result{Cycles: pointValue(job.Point), Energy: 2 * pointValue(job.Point)}, nil
		},
	})
	defer f.Close()
	w := workloads.MustGet("256.bzip2", workloads.Train)
	rng := rand.New(rand.NewSource(6))
	var points []doe.Point
	for i := 0; i < 50; i++ {
		points = append(points, doe.JointSpace().RandomPoint(rng))
	}
	got, err := f.MeasureBatch(context.Background(), w, points, Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if got[i] != pointValue(p) {
			t.Fatalf("index %d: got %v want %v", i, got[i], pointValue(p))
		}
	}
	// Energy rides along from the same executions: all store hits now.
	st := f.Stats()
	en, err := f.MeasureBatch(context.Background(), w, points, Energy)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if en[i] != 2*pointValue(p) {
			t.Fatalf("energy index %d: got %v want %v", i, en[i], 2*pointValue(p))
		}
	}
	st2 := f.Stats()
	if st2.SimsExecuted != st.SimsExecuted {
		t.Fatalf("energy batch re-simulated: %d -> %d", st.SimsExecuted, st2.SimsExecuted)
	}
	if st2.CacheHits-st.CacheHits != int64(len(points)) {
		t.Fatalf("expected %d cache hits, got %d", len(points), st2.CacheHits-st.CacheHits)
	}
}

func TestExecutorBudgetClassification(t *testing.T) {
	f := New(Options{Workers: 1, MaxInstrs: 100}) // far below any real run
	defer f.Close()
	job := Job{
		Workload: workloads.MustGet("179.art", workloads.Train),
		Point: doe.JoinPoint(
			doe.FromOptions(compiler.O2()),
			doe.FromConfig(sim.DefaultConfig()),
		),
	}
	_, err := f.Do(context.Background(), job)
	if err == nil {
		t.Fatal("expected budget overrun")
	}
	if Classify(err) != ClassBudget {
		t.Fatalf("Classify(%v) = %v, want ClassBudget", err, Classify(err))
	}
	if st := f.Stats(); st.BudgetOverruns != 1 {
		t.Fatalf("budget overruns = %d, want 1", st.BudgetOverruns)
	}
}

func TestFarmClosedRejectsWork(t *testing.T) {
	f := New(Options{Workers: 1, Measure: func(ctx context.Context, job Job) (Result, error) {
		return Result{Cycles: 1}, nil
	}})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := f.Do(context.Background(), testJob(7)); err == nil {
		t.Fatal("expected error from closed farm")
	}
}

// TestStatsConsistentUnderLoad pins the snapshot guarantee of Stats: every
// counter is read under one lock acquisition, so counters that the farm
// updates together can never be observed torn. The stub executor reports a
// fixed instruction count per simulation, making the invariant exact:
// InstrsSimulated must equal perSim * SimsExecuted in *every* snapshot, no
// matter when it is taken relative to in-flight updates. Run with -race this
// also exercises the stats lock against the measurement path.
func TestStatsConsistentUnderLoad(t *testing.T) {
	const perSim = 1000
	f := New(Options{
		Workers: 8,
		Measure: func(ctx context.Context, job Job) (Result, error) {
			return Result{Cycles: pointValue(job.Point), Energy: 1, Instructions: perSim}, nil
		},
	})
	defer f.Close()

	stop := make(chan struct{})
	torn := make(chan string, 1)
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
				if st.InstrsSimulated != perSim*st.SimsExecuted {
					select {
					case torn <- fmt.Sprintf("torn snapshot: %d instrs for %d sims",
						st.InstrsSimulated, st.SimsExecuted):
					default:
					}
					return
				}
				if st.SimsExecuted+st.Failures > st.CacheMisses {
					select {
					case torn <- fmt.Sprintf("more completions (%d) than misses (%d)",
						st.SimsExecuted+st.Failures, st.CacheMisses):
					default:
					}
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	w := workloads.MustGet("179.art", workloads.Train)
	space := doe.JointSpace()
	for round := 0; round < 4; round++ {
		points := make([]doe.Point, 64)
		for i := range points {
			points[i] = space.RandomPoint(rng)
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
	if st.SimsExecuted == 0 {
		t.Fatal("no simulations ran")
	}
	if st.InstrsSimulated != perSim*st.SimsExecuted {
		t.Fatalf("final stats inconsistent: %d instrs for %d sims", st.InstrsSimulated, st.SimsExecuted)
	}
}
