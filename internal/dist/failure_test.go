package dist

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/workloads"
)

// deadWorker is a worker that accepted the lease and then went silent — the
// wire shape of a crash, kill -9 or network partition mid-group. It writes
// the 200 header (so the coordinator is reading the stream) and then nothing.
func deadWorker() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.WriteHeader(http.StatusOK)
		if f, ok := rw.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	})
}

// TestWorkerDeathRequeuesGroup kills one of two workers mid-group (it leases
// and never heartbeats) and asserts the lease expires, the group requeues to
// the live worker, every point completes with the right value, and nothing is
// measured twice or lost in the store.
func TestWorkerDeathRequeuesGroup(t *testing.T) {
	dead := httptest.NewServer(deadWorker())
	defer dead.Close()

	var execs atomic.Int64
	live := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()
	defer live.Close()

	// The dead worker is listed first, so round one of every group lands on
	// it (the scheduler prefers an idle worker over a busy one).
	co, err := New(Options{
		Addrs:        []string{dead.URL, liveTS.URL},
		LeaseTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(6, 21)
	got, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if got[i] != pointValue(p) {
			t.Fatalf("point %d: got %v want %v", i, got[i], pointValue(p))
		}
	}
	st := co.Stats()
	if st.GroupsRequeued == 0 {
		t.Fatalf("no requeues recorded despite a dead worker: %+v", st)
	}
	// Exactly-once execution: only the live worker measured, once per point.
	if n := execs.Load(); n != int64(len(points)) {
		t.Fatalf("%d executions for %d points — lost or duplicated work", n, len(points))
	}
	// No lost store entries: every key is a hit now.
	for _, p := range points {
		k := farm.Key(w, p)
		if _, _, ok := co.Store().Get2(k, farm.EnergyKey(k)); !ok {
			t.Fatalf("store lost %s", k)
		}
	}
	if st.WorkersLive != 1 {
		t.Fatalf("workers live = %d, want 1 (one dead)", st.WorkersLive)
	}
}

// TestSlowGroupKeepsOneLease pins one lease per group: a group that runs
// long on a live, heartbeating worker stays on that lease, however idle the
// rest of the fleet. Measurements are deterministic, so a second copy could
// only repeat the first.
func TestSlowGroupKeepsOneLease(t *testing.T) {
	var execs [2]atomic.Int64
	p := newPlane(t,
		[]WorkerOptions{
			{Workers: 1, Measure: stubMeasure(&execs[0], 2500*time.Millisecond), Heartbeat: 10 * time.Millisecond},
			{Workers: 1, Measure: stubMeasure(&execs[1], 2500*time.Millisecond), Heartbeat: 10 * time.Millisecond},
		},
	)
	w := workloads.MustGet("179.art", workloads.Train)
	pt := randomPoints(1, 26)[0]
	got, err := measureOne(p.co, w, pt, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if got != pointValue(pt) {
		t.Fatalf("got %v want %v", got, pointValue(pt))
	}
	st := p.co.Stats()
	if st.GroupsDispatched != 1 {
		t.Fatalf("dispatched = %d, want 1 (one lease for one group)", st.GroupsDispatched)
	}
	if st.SimsExecuted != 1 {
		t.Fatalf("sims recorded = %d, want 1", st.SimsExecuted)
	}
	if n0, n1 := st.PerWorker[0].Jobs, st.PerWorker[1].Jobs; n0+n1 != 1 {
		t.Fatalf("leases per worker = %d/%d, want one lease on one worker", n0, n1)
	}
	if n0, n1 := execs[0].Load(), execs[1].Load(); n0+n1 != 1 {
		t.Fatalf("executions per worker = %d/%d, want 1 in all", n0, n1)
	}
}

// TestCoordinatorRestartReplaysJournal pins the crash-semantics contract: the
// store is coordinator-owned and journaled, so a new coordinator over the
// same store directory answers everything from the journal without a single
// lease crossing the wire.
func TestCoordinatorRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	wk := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	defer wk.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(8, 23)

	openStore := func() *farm.Store {
		st, err := farm.Open(filepath.Join(dir, "measurements"), nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	co1, err := New(Options{Addrs: []string{ts.URL}, Store: openStore()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := co1.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil { // journal + checkpoint flushed here
		t.Fatal(err)
	}
	measured := execs.Load()

	co2, err := New(Options{Addrs: []string{ts.URL}, Store: openStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	got, err := co2.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if got[i] != want[i] {
			t.Fatalf("point %d changed across restart: %v -> %v", i, want[i], got[i])
		}
	}
	if n := execs.Load(); n != measured {
		t.Fatalf("restart re-measured: %d executions before, %d after", measured, n)
	}
	st := co2.Stats()
	if st.GroupsDispatched != 0 || st.CacheHits != int64(len(points)) {
		t.Fatalf("restart went to the wire: dispatched=%d hits=%d", st.GroupsDispatched, st.CacheHits)
	}
}

// TestDuplicateResultFailsTheLease: a worker whose stream repeats a result
// index in place of a missing one has not completed the group. The lease
// fails and the group is requeued to an honest worker, rather than the
// missing point completing with zero cycles and no error.
func TestDuplicateResultFailsTheLease(t *testing.T) {
	liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(rw, `{"result":true,"i":0,"cycles":1}`+"\n"+`{"result":true,"i":0,"cycles":1}`+"\n"+`{"done":true}`+"\n")
	}))
	defer liar.Close()

	var execs atomic.Int64
	live := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()
	defer live.Close()

	// The liar is listed first, so the group's first lease lands on it.
	co, err := New(Options{Addrs: []string{liar.URL, liveTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	points := sweepPoints(1, 2) // one shared-binary group of two points
	got, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if got[i] != pointValue(p) {
			t.Errorf("point %d: got %v want %v", i, got[i], pointValue(p))
		}
	}
	if st := co.Stats(); st.GroupsRequeued == 0 || st.GroupsDispatched < 2 {
		t.Errorf("dispatched=%d requeued=%d: the lying lease was accepted", st.GroupsDispatched, st.GroupsRequeued)
	}
}

// TestCorruptNumbersFailTheLease: a worker whose stream reports a measured
// point without a positive cycle count, or a done line whose local-hit count
// is outside [0, tasks], has not delivered the group. The lease fails with a
// StreamError and the group is requeued to an honest worker; neither the
// bogus cycles nor the bogus hits reach a caller or the dispatch stats.
func TestCorruptNumbersFailTheLease(t *testing.T) {
	good := `{"result":true,"i":0,"cycles":1}` + "\n" + `{"result":true,"i":1,"cycles":1}` + "\n"
	for _, tc := range []struct{ name, stream string }{
		{"zero cycles", `{"result":true,"i":0,"cycles":1}` + "\n" + `{"result":true,"i":1}` + "\n" + `{"done":true}` + "\n"},
		{"negative cycles", `{"result":true,"i":0,"cycles":-5}` + "\n" + `{"result":true,"i":1,"cycles":1}` + "\n" + `{"done":true}` + "\n"},
		{"hits above tasks", good + `{"done":true,"local_hits":3}` + "\n"},
		{"negative hits", good + `{"done":true,"local_hits":-1}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rw.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(rw, tc.stream)
			}))
			defer liar.Close()
			var execs atomic.Int64
			live := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
			liveTS := httptest.NewServer(live.Handler())
			defer liveTS.Close()
			defer live.Close()

			logs := &lockedLog{}
			co, err := New(Options{Addrs: []string{liar.URL, liveTS.URL}, Log: logs})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()

			w := workloads.MustGet("179.art", workloads.Train)
			points := sweepPoints(1, 2) // one shared-binary group of two points
			got, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range points {
				if got[i] != pointValue(p) {
					t.Errorf("point %d: got %v want %v", i, got[i], pointValue(p))
				}
			}
			st := co.Stats()
			if st.GroupsRequeued == 0 || st.GroupsDispatched < 2 {
				t.Errorf("dispatched=%d requeued=%d: the corrupt lease was accepted", st.GroupsDispatched, st.GroupsRequeued)
			}
			if st.WorkerLocalHits != 0 {
				t.Errorf("worker local hits %d, want 0 from the honest worker", st.WorkerLocalHits)
			}
			if log := logs.String(); !strings.Contains(log, "dist: stream from "+liar.URL) {
				t.Errorf("no stream error logged for the liar:\n%s", log)
			}
		})
	}
}

// lockedLog is an io.Writer the coordinator's goroutines may share.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestAllWorkersDeadExhaustsAttempts bounds the retry loop: with every
// worker silent, a group fails to its callers after maxAttempts (3) leases
// instead of spinning forever.
func TestAllWorkersDeadExhaustsAttempts(t *testing.T) {
	d1 := httptest.NewServer(deadWorker())
	defer d1.Close()
	d2 := httptest.NewServer(deadWorker())
	defer d2.Close()

	co, err := New(Options{
		Addrs:        []string{d1.URL, d2.URL},
		LeaseTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	_, err = measureOne(co, w, randomPoints(1, 24)[0], farm.Cycles)
	if err == nil {
		t.Fatal("expected failure with every worker dead")
	}
	if !strings.Contains(err.Error(), "after 3 leases") {
		t.Fatalf("error %q does not mention the exhausted lease budget", err)
	}
	st := co.Stats()
	if st.GroupsDispatched != 3 || st.GroupsRequeued != 2 {
		t.Fatalf("dispatched=%d requeued=%d, want 3/2", st.GroupsDispatched, st.GroupsRequeued)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

// TestSuspectWorkerDoesNotBurnAttempts pins the probe-delay policy: with one
// worker refusing connections and the only live worker saturated, instant
// dispatch failures on the already-suspect worker must not consume the
// groups' attempt budgets — every group still completes on the live worker.
func TestSuspectWorkerDoesNotBurnAttempts(t *testing.T) {
	// A server that is already gone: dials to its address fail immediately,
	// the worst case for budget burn (failure is instant and free).
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()

	var execs atomic.Int64
	live := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(&execs, 40*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()
	defer live.Close()

	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// One slot each keeps the live worker saturated, exposing the dead one.
	for _, addr := range []string{goneURL, liveTS.URL} {
		if _, err := co.Register(addr); err != nil {
			t.Fatal(err)
		}
	}

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(5, 28) // five groups, only one live lease slot
	got, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatalf("batch failed with a live worker available: %v", err)
	}
	for i, p := range points {
		if got[i] != pointValue(p) {
			t.Fatalf("point %d: got %v want %v", i, got[i], pointValue(p))
		}
	}
	if n := execs.Load(); n != int64(len(points)) {
		t.Fatalf("%d executions for %d points", n, len(points))
	}
}

// TestSuspectWorkerSitsOutNotTheGroup: a failed probe of a dead worker
// requeues its group at once and sits the worker out instead, so with the
// only live worker saturated at one slot, each group leases as soon as that
// slot frees. At 40 ms a point, five groups take ~200 ms; a group held out
// for probeDelay (250 ms) would take longer than that on its own.
func TestSuspectWorkerSitsOutNotTheGroup(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()

	var execs atomic.Int64
	live := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(&execs, 40*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()
	defer live.Close()

	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for _, addr := range []string{goneURL, liveTS.URL} {
		if _, err := co.Register(addr); err != nil {
			t.Fatal(err)
		}
	}
	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(5, 29)
	start := time.Now()
	if _, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Five 40 ms groups back to back on one slot, plus a probe delay's worth
	// of slack for a slow machine; a group held out for probeDelay after
	// each failed probe costs several of them.
	if limit := 5*40*time.Millisecond + probeDelay; elapsed > limit {
		t.Fatalf("five groups took %v on one free slot, want under %v", elapsed, limit)
	}
}

// TestErrorClassSurvivesTheWire pins farm.RemoteError: a worker-side budget
// overrun reaches the coordinator's caller with its budget flag (so the
// BudgetOverruns counter behaves exactly as in-process).
func TestErrorClassSurvivesTheWire(t *testing.T) {
	wk := NewWorker(WorkerOptions{
		Workers:   1,
		Heartbeat: 10 * time.Millisecond,
		Measure: func(ctx context.Context, job farm.Job) (farm.Result, error) {
			return farm.Result{}, &farm.SimError{Workload: job.Workload.Key(), Budget: true, Err: errors.New("budget exhausted")}
		},
	})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	defer wk.Close()

	co, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	_, err = measureOne(co, w, randomPoints(1, 25)[0], farm.Cycles)
	if err == nil {
		t.Fatal("expected remote budget error")
	}
	var re *farm.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a RemoteError", err)
	}
	if !re.Budget || !farm.IsBudget(err) {
		t.Fatalf("remote error %+v lost its budget flag", re)
	}
	st := co.Stats()
	if st.BudgetOverruns != 1 || st.Failures != 1 {
		t.Fatalf("budget=%d failures=%d, want 1/1", st.BudgetOverruns, st.Failures)
	}
}

// TestDrainWaitsThenRequeues pins the drain lifecycle: draining stops new
// leases, a drain that outlasts the in-flight lease returns clean, and a
// drain bounded tighter than the lease cancels it and requeues the group so
// no work is silently lost.
func TestDrainWaitsThenRequeues(t *testing.T) {
	t.Run("in-flight lease finishes", func(t *testing.T) {
		p := newPlane(t,
			[]WorkerOptions{{Workers: 1, Measure: stubMeasure(nil, 100*time.Millisecond), Heartbeat: 10 * time.Millisecond}},
		)
		w := workloads.MustGet("179.art", workloads.Train)
		points := sweepPoints(1, 2) // one group, one lease
		done := make(chan error, 1)
		go func() {
			_, err := p.co.MeasureBatch(context.Background(), w, points, farm.Cycles)
			done <- err
		}()
		waitForDispatch(t, p.co, 1)

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := p.co.Drain(ctx); err != nil {
			t.Fatalf("drain with room to finish returned %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("batch under drain failed: %v", err)
		}
		for _, pt := range points {
			k := farm.Key(w, pt)
			if _, _, ok := p.co.Store().Get2(k, farm.EnergyKey(k)); !ok {
				t.Fatalf("drained coordinator lost %s", k)
			}
		}
	})

	t.Run("drain timeout requeues", func(t *testing.T) {
		gate := make(chan struct{})
		defer close(gate)
		p := newPlane(t,
			[]WorkerOptions{{
				Workers:   1,
				Heartbeat: 10 * time.Millisecond,
				Measure: func(ctx context.Context, job farm.Job) (farm.Result, error) {
					select {
					case <-gate:
					case <-ctx.Done():
					}
					return farm.Result{}, ctx.Err()
				},
			}},
		)
		w := workloads.MustGet("179.art", workloads.Train)
		done := make(chan error, 1)
		go func() {
			_, err := measureOne(p.co, w, randomPoints(1, 27)[0], farm.Cycles)
			done <- err
		}()
		waitForDispatch(t, p.co, 1)

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := p.co.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain = %v, want deadline exceeded", err)
		}
		if st := p.co.Stats(); st.GroupsRequeued != 1 {
			t.Fatalf("requeued = %d, want 1 — the cancelled lease's group vanished", st.GroupsRequeued)
		}
		// Close fails the still-queued waiter rather than hanging.
		if err := p.co.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("waiter got a result from a drained+closed coordinator")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter hung after drain+close")
		}
	})
}

func waitForDispatch(t *testing.T, co *Coordinator, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().GroupsDispatched < n {
		if time.Now().After(deadline) {
			t.Fatalf("never dispatched %d groups: %+v", n, co.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
