package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// measureOne is MeasureBatch on one point.
func measureOne(b farm.Backend, w workloads.Workload, p doe.Point, resp farm.Response) (float64, error) {
	v, err := b.MeasureBatch(context.Background(), w, []doe.Point{p}, resp)
	if err != nil {
		return 0, err
	}
	return v[0], nil
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

// stubMeasure is a deterministic executor stub that counts executions and
// honours cancellation (so cancelled leases unwind like the real one).
func stubMeasure(execs *atomic.Int64, delay time.Duration) farm.MeasureFunc {
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		if execs != nil {
			execs.Add(1)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return farm.Result{}, ctx.Err()
			}
		}
		return farm.Result{Cycles: pointValue(job.Point), Energy: 2 * pointValue(job.Point), Instructions: 1000}, nil
	}
}

// plane is one coordinator over N in-process workers for tests.
type plane struct {
	co      *Coordinator
	workers []*Worker
	servers []*httptest.Server
}

// newPlane spins up len(wopts) workers behind httptest servers and a
// coordinator over them, each worker registered as a real worker registers
// and stating its Workers count as its slots. Close order matters: coordinator
// first (it cancels leases), then servers, then worker farms.
func newPlane(t *testing.T, wopts []WorkerOptions) *plane {
	t.Helper()
	p := &plane{}
	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	p.co = co
	for _, wo := range wopts {
		w := NewWorker(wo)
		ts := httptest.NewServer(w.Handler())
		p.workers = append(p.workers, w)
		p.servers = append(p.servers, ts)
		if _, err := co.Register(ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		p.co.Close()
		for _, ts := range p.servers {
			ts.Close()
		}
		for _, w := range p.workers {
			w.Close()
		}
	})
	return p
}

func randomPoints(n int, seed int64) []doe.Point {
	rng := rand.New(rand.NewSource(seed))
	space := doe.JointSpace()
	pts := make([]doe.Point, n)
	for i := range pts {
		pts[i] = space.RandomPoint(rng)
	}
	return pts
}

// sweepPoints builds a Table-7-shaped batch: nFlags compiler vectors crossed
// with microarch variants, so the batch plans into exactly nFlags
// shared-binary groups.
func sweepPoints(nFlags, perFlag int) []doe.Point {
	var pts []doe.Point
	for f := 0; f < nFlags; f++ {
		opts := compiler.O2()
		if f%2 == 1 {
			opts = compiler.O3()
		}
		opts.UnrollLoops = true
		opts.MaxUnrollTimes = 1 << uint(f) // 1, 2, 4, 8… — distinct binaries
		for m := 0; m < perFlag; m++ {
			cfg := sim.DefaultConfig()
			cfg.MemLat = 60 + 10*m
			cfg.BPredSize = 1024 << (m % 3)
			pts = append(pts, doe.JoinPoint(doe.FromOptions(opts), doe.FromConfig(cfg)))
		}
	}
	return pts
}

// distTestSource is a tiny generated workload (fast to compile and simulate)
// for the end-to-end pinned tests that run the real executor.
func distTestSource() string {
	var sb strings.Builder
	sb.WriteString("int data[64];\n")
	sb.WriteString("int mix(int x) {\n\tint acc = x;\n")
	for s := 0; s < 6; s++ {
		fmt.Fprintf(&sb, "\tacc = (acc * %d + data[(acc + %d) & 63]) ^ %d;\n", 3+s, s*7, s+11)
	}
	sb.WriteString("\treturn acc;\n}\n")
	sb.WriteString("int main() {\n\tint seed = 77;\n")
	sb.WriteString("\tfor (int i = 0; i < 64; i = i + 1) {\n")
	sb.WriteString("\t\tseed = (seed * 1103515245 + 12345) & 2147483647;\n\t\tdata[i] = (seed >> 5) % 512;\n\t}\n")
	sb.WriteString("\tint sum = 0;\n\tfor (int r = 0; r < 6; r = r + 1) {\n\t\tsum = sum + mix(sum + r);\n\t}\n")
	sb.WriteString("\treturn sum & 1073741823;\n}\n")
	return sb.String()
}

func distTestWorkload() workloads.Workload {
	return workloads.Workload{Name: "920.dist", Input: "test", Class: workloads.Train, Source: distTestSource()}
}

// TestDistributedMatchesInProcess is the acceptance pin: the same sweep,
// measured with the real compile+simulate executor, must be bit-identical
// between the in-process farm and a coordinator sharding over two workers —
// the distributed plane may change throughput, never values.
func TestDistributedMatchesInProcess(t *testing.T) {
	w := distTestWorkload()
	w.Parse()
	points := sweepPoints(3, 3)

	local := farm.New(farm.Options{Workers: 2})
	cycLocal, err := local.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	enLocal, err := local.MeasureBatch(context.Background(), w, points, farm.Energy)
	if err != nil {
		t.Fatal(err)
	}
	local.Close()

	p := newPlane(t,
		[]WorkerOptions{{Workers: 2, Heartbeat: 20 * time.Millisecond}, {Workers: 2, Heartbeat: 20 * time.Millisecond}},
	)
	cycDist, err := p.co.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	enDist, err := p.co.MeasureBatch(context.Background(), w, points, farm.Energy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if cycDist[i] != cycLocal[i] || enDist[i] != enLocal[i] {
			t.Fatalf("point %d diverged: dist (%v, %v) vs local (%v, %v)",
				i, cycDist[i], enDist[i], cycLocal[i], enLocal[i])
		}
	}

	// The energy batch must have been pure store hits — measurements merged
	// into the coordinator-owned store on the cycles pass.
	st := p.co.Stats()
	if st.CacheHits < int64(len(points)) {
		t.Fatalf("energy pass re-measured: %d hits for %d points", st.CacheHits, len(points))
	}
	if st.SimsExecuted != int64(len(points)) {
		t.Fatalf("sims executed = %d, want %d", st.SimsExecuted, len(points))
	}
}

// TestGroupIsTheDispatchUnit pins the planner equivalence: a batch that
// farm.DoJobs would plan into k shared-binary groups crosses the wire as
// exactly k leases, and each worker compiles each group's binary once.
func TestGroupIsTheDispatchUnit(t *testing.T) {
	w := distTestWorkload()
	w.Parse()
	const nGroups = 4
	points := sweepPoints(nGroups, 3)

	p := newPlane(t,
		[]WorkerOptions{{Workers: 2, Heartbeat: 20 * time.Millisecond}, {Workers: 2, Heartbeat: 20 * time.Millisecond}},
	)
	if _, err := p.co.MeasureBatch(context.Background(), w, points, farm.Cycles); err != nil {
		t.Fatal(err)
	}
	st := p.co.Stats()
	if st.BinaryGroups != nGroups {
		t.Fatalf("coordinator planned %d groups, want %d", st.BinaryGroups, nGroups)
	}
	if st.GroupsDispatched != nGroups {
		t.Fatalf("dispatched %d leases for %d groups (a group must be one lease)", st.GroupsDispatched, nGroups)
	}
	var workerGroups, workerShared int64
	for _, wk := range p.workers {
		ws := wk.Stats()
		workerGroups += ws.BinaryGroups
		workerShared += ws.TraceSharedSims
	}
	if workerGroups != nGroups {
		t.Fatalf("workers formed %d binary groups, want %d: sharing broke in transit", workerGroups, nGroups)
	}
	if workerShared == 0 {
		t.Fatal("no shared-binary simulations on the workers: compile-once lost")
	}
}

// TestCoalescingAndStoreHits pins the single-flight and cache layers of the
// coordinator: concurrent callers of one point trigger one dispatch, and
// completed points are store hits that never touch the wire again.
func TestCoalescingAndStoreHits(t *testing.T) {
	var execs atomic.Int64
	p := newPlane(t,
		[]WorkerOptions{{Workers: 2, Measure: stubMeasure(&execs, 30*time.Millisecond), Heartbeat: 10 * time.Millisecond}},
	)
	w := workloads.MustGet("179.art", workloads.Train)
	pt := randomPoints(1, 1)[0]

	const callers = 8
	var wg sync.WaitGroup
	vals := make([]float64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = measureOne(p.co, w, pt, farm.Cycles)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if vals[i] != pointValue(pt) {
			t.Fatalf("caller %d got %v, want %v", i, vals[i], pointValue(pt))
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions for %d concurrent callers of one point", n, callers)
	}
	if _, err := measureOne(p.co, w, pt, farm.Energy); err != nil {
		t.Fatal(err)
	}
	st := p.co.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
	if st.CacheMisses != 1 || st.Coalesced != callers-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1/%d", st.CacheMisses, st.Coalesced, callers-1)
	}
}

// TestBackendInterchangeable pins the satellite seam: code written against
// farm.Backend runs identically over the in-process farm and the
// coordinator. (The compile-time assertions live next to each type; this
// exercises the swap at runtime through one code path.) The batch mixes two
// shared-binary groups, two points alone with their binaries and an in-batch
// duplicate, then repeats, so every planner counter moves — and since the
// planner is one piece of code in front of both planes, its layer of the
// stats must come out equal field by field.
func TestBackendInterchangeable(t *testing.T) {
	w := distTestWorkload()
	w.Parse()
	points := sweepPoints(2, 3) // the sweep unrolls; plain O2 and O3 are binaries of their own
	points = append(points,
		doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig())),
		doe.JoinPoint(doe.FromOptions(compiler.O3()), doe.FromConfig(sim.Constrained())))
	points = append(points, points[0])

	run := func(backend farm.Backend) ([]float64, farm.PlannerStats) {
		t.Helper()
		defer backend.Close()
		got, err := backend.MeasureBatch(context.Background(), w, points, farm.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backend.MeasureBatch(context.Background(), w, points, farm.Energy); err != nil {
			t.Fatal(err)
		}
		return got, backend.Stats().PlannerStats
	}

	local, localStats := run(farm.New(farm.Options{Workers: 2}))

	wk := NewWorker(WorkerOptions{Workers: 2, Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	defer wk.Close()
	co, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	dist, distStats := run(co)

	for i := range points {
		if local[i] != dist[i] {
			t.Fatalf("backend divergence at %d: local %v dist %v", i, local[i], dist[i])
		}
	}
	lv, dv := reflect.ValueOf(localStats), reflect.ValueOf(distStats)
	for i := 0; i < lv.NumField(); i++ {
		if l, d := lv.Field(i).Int(), dv.Field(i).Int(); l != d {
			t.Errorf("planner stats diverge on %s: local %d, dist %d", lv.Type().Field(i).Name, l, d)
		}
	}
	if localStats.BinaryGroups != 2 || localStats.TraceSharedSims != 6 || localStats.Coalesced != 1 {
		t.Errorf("batch did not exercise the planner as intended: %+v", localStats)
	}
}

// TestStatsConsistentUnderLoad is the distributed twin of the farm's hammer
// test: concurrent readers assert cross-counter invariants on every Stats
// snapshot while batches run, pinning the tear-free guarantee of the new
// dispatch counters. Run with -race this also exercises statMu against the
// dispatch and finish paths.
func TestStatsConsistentUnderLoad(t *testing.T) {
	const perSim = 1000
	p := newPlane(t,
		[]WorkerOptions{
			{Workers: 4, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond},
			{Workers: 4, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond},
		},
	)

	stop := make(chan struct{})
	torn := make(chan string, 1)
	report := func(format string, args ...interface{}) {
		select {
		case torn <- fmt.Sprintf(format, args...):
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
				st := p.co.Stats()
				if st.InstrsSimulated != perSim*st.SimsExecuted {
					report("torn snapshot: %d instrs for %d sims", st.InstrsSimulated, st.SimsExecuted)
					return
				}
				if st.GroupsDispatched < st.BinaryGroups {
					report("finished groups (%d) exceed dispatches (%d)", st.BinaryGroups, st.GroupsDispatched)
					return
				}
				if st.WorkersLive < 0 || st.WorkersLive > int64(st.Workers) {
					report("workers live %d outside [0, %d]", st.WorkersLive, st.Workers)
					return
				}
				if st.SimsExecuted+st.Failures > st.CacheMisses {
					report("more completions (%d) than misses (%d)", st.SimsExecuted+st.Failures, st.CacheMisses)
					return
				}
				var pwGroups, pwHits int64
				for _, pw := range st.PerWorker {
					if pw.InFlight < 0 || pw.InFlight > pw.Slots {
						report("worker %s in-flight %d outside its %d slots", pw.Addr, pw.InFlight, pw.Slots)
						return
					}
					pwGroups += pw.Groups
					pwHits += pw.LocalHits
				}
				if pwGroups > st.GroupsDispatched {
					report("per-worker groups (%d) exceed dispatches (%d)", pwGroups, st.GroupsDispatched)
					return
				}
				if pwHits != st.WorkerLocalHits {
					report("per-worker local hits %d != aggregate %d", pwHits, st.WorkerLocalHits)
					return
				}
				if st.StoreMergeConflicts > 0 {
					report("deterministic stub produced %d merge conflicts", st.StoreMergeConflicts)
					return
				}
			}
		}()
	}

	// Membership churn runs concurrently with the batches: a third worker
	// registers, is pulled from (Checkpoint), and deregisters in a loop,
	// exercising fleet mutation against dispatch, stats and merge paths.
	churner := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
	churnTS := httptest.NewServer(churner.Handler())
	defer churnTS.Close()
	defer churner.Close()
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.co.Register(churnTS.URL); err != nil {
				return
			}
			p.co.Checkpoint()
			if _, err := p.co.Deregister(churnTS.URL); err != nil {
				return
			}
		}
	}()

	w := workloads.MustGet("179.art", workloads.Train)
	for round := 0; round < 4; round++ {
		if _, err := p.co.MeasureBatch(context.Background(), w, randomPoints(48, int64(10+round)), farm.Cycles); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	churn.Wait()
	readers.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	st := p.co.Stats()
	if st.SimsExecuted == 0 || st.GroupsDispatched == 0 {
		t.Fatalf("no work flowed: %+v", st)
	}
}

// TestCoordinatorClosedRejectsWork mirrors the farm's contract.
func TestCoordinatorClosedRejectsWork(t *testing.T) {
	wk := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(nil, 0)})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	defer wk.Close()
	co, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	if _, err := measureOne(co, w, randomPoints(1, 3)[0], farm.Cycles); err == nil {
		t.Fatal("expected error from closed coordinator")
	}
}
