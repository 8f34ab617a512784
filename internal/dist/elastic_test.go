package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/workloads"
)

// TestRegistrationGrowsAndShrinksFleet pins dynamic membership end to end
// through the control API: a dynamic coordinator starts with no workers and
// queued work, a worker registering over HTTP unblocks it, a second
// registration spreads subsequent load, and a deregistered worker gets no
// further leases while in-flight work still completes.
func TestRegistrationGrowsAndShrinksFleet(t *testing.T) {
	var execs1, execs2 atomic.Int64
	w1 := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs1, 0), Heartbeat: 10 * time.Millisecond})
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	defer w1.Close()
	w2 := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(&execs2, 0), Heartbeat: 10 * time.Millisecond})
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()
	defer w2.Close()

	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	control := httptest.NewServer(co.Handler())
	defer control.Close()

	// Work submitted into an empty fleet queues rather than failing.
	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(6, 31)
	batchDone := make(chan error, 1)
	go func() {
		_, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles)
		batchDone <- err
	}()
	select {
	case err := <-batchDone:
		t.Fatalf("batch finished with no workers: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// First worker joins over the wire and the queue drains to it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := RegisterWorker(ctx, control.URL, ts1.URL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-batchDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch never completed after registration")
	}
	if execs1.Load() != int64(len(points)) {
		t.Fatalf("first worker executed %d of %d points", execs1.Load(), len(points))
	}

	// Second worker joins mid-run; later load reaches it.
	if err := RegisterWorker(ctx, control.URL, ts2.URL); err != nil {
		t.Fatal(err)
	}
	var infos []WorkerInfo
	resp, err := http.Get(control.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 {
		t.Fatalf("fleet view has %d workers, want 2: %+v", len(infos), infos)
	}
	if _, err := co.MeasureBatch(context.Background(), w, randomPoints(12, 32), farm.Cycles); err != nil {
		t.Fatal(err)
	}
	if execs2.Load() == 0 {
		t.Fatal("registered second worker never received work")
	}

	// Deregistering the first worker over the wire stops its leases; the
	// remaining worker carries the next batch alone.
	body, _ := json.Marshal(RegisterRequest{Addr: ts1.URL})
	req, _ := http.NewRequest(http.MethodDelete, control.URL+"/v1/register", bytes.NewReader(body))
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: %s", dresp.Status)
	}
	before := execs1.Load()
	if _, err := co.MeasureBatch(context.Background(), w, randomPoints(8, 33), farm.Cycles); err != nil {
		t.Fatal(err)
	}
	if execs1.Load() != before {
		t.Fatalf("deregistered worker measured %d new points", execs1.Load()-before)
	}
	st := co.Stats()
	if st.WorkersLive != 1 {
		t.Fatalf("workers live = %d, want 1 after deregistration", st.WorkersLive)
	}
	var removed int
	for _, pw := range st.PerWorker {
		if pw.Removed {
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("%d workers flagged removed, want 1: %+v", removed, st.PerWorker)
	}
}

// TestControlBodiesAreBounded pins the control API's body bound: a register
// or deregister body past maxControlBody is a 4xx and leaves the fleet as it
// was, where an unbounded decode registered a worker with a 9 MiB address.
func TestControlBodiesAreBounded(t *testing.T) {
	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	control := httptest.NewServer(co.Handler())
	defer control.Close()
	body := []byte(`{"addr":"` + strings.Repeat("a", 9<<20) + `"}`)
	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		req, _ := http.NewRequest(method, control.URL+"/v1/register", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s of a 9 MiB body: %s, want 4xx", method, resp.Status)
		}
	}
	if st := co.Stats(); len(st.PerWorker) != 0 || st.WorkersLive != 0 {
		t.Fatalf("fleet changed: %d workers, %d live", len(st.PerWorker), st.WorkersLive)
	}
}

// TestRegisterWorkerRetriesOnlyWhatMayPass: a control server answering 4xx
// (a wrong -coordinator URL, a bad body) answers the same on every retry, so
// RegisterWorker returns its error at once instead of waiting out its
// context; a 5xx is retried until the coordinator accepts.
func TestRegisterWorkerRetriesOnlyWhatMayPass(t *testing.T) {
	wrong := httptest.NewServer(http.NotFoundHandler())
	defer wrong.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := RegisterWorker(ctx, wrong.URL, "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("registering with a 404 server: %v, want its 404", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a 404 took %v to give up on, against a 5s deadline", d)
	}

	var calls atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(rw, "starting", http.StatusServiceUnavailable)
		}
	}))
	defer busy.Close()
	if err := RegisterWorker(ctx, busy.URL, "127.0.0.1:1"); err != nil || calls.Load() != 2 {
		t.Fatalf("a 503 then a 200: %v after %d calls, want success on the second", err, calls.Load())
	}

	// A coordinator that is gone refuses the dial: deregistering from it
	// has nothing to withdraw, so it must not wait out the deadline.
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	start = time.Now()
	if err := DeregisterWorker(ctx, gone.URL, "127.0.0.1:1"); err == nil {
		t.Fatal("deregistering from a closed listener succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a refused deregister took %v to give up on, against a 5s deadline", d)
	}
}

// TestStatedSlotsHeader holds the coordinator to the budget a lease response
// states: a value outside [1, maxSlots] fails the lease as a *StreamError,
// the group is requeued to an honest worker and the budget stays as it was;
// a response that states nothing leaves the budget as it was.
func TestStatedSlotsHeader(t *testing.T) {
	stream := `{"result":true,"i":0,"cycles":1}` + "\n" + `{"result":true,"i":1,"cycles":1}` + "\n" + `{"done":true}` + "\n"
	w := workloads.MustGet("179.art", workloads.Train)
	for _, stated := range []string{"0", "-1", "4097", "x"} {
		t.Run(stated, func(t *testing.T) {
			var se *StreamError
			if err := (&Coordinator{}).statedSlots(&workerRef{}, stated); !errors.As(err, &se) {
				t.Fatalf("stating %q slots: %v, want a *StreamError", stated, err)
			}
			liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rw.Header().Set(slotsHeader, stated)
				io.WriteString(rw, stream)
			}))
			defer liar.Close()
			live := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
			liveTS := httptest.NewServer(live.Handler())
			defer liveTS.Close()
			defer live.Close()

			// The liar is listed first, so the group's first lease lands on it.
			logs := &lockedLog{}
			co, err := New(Options{Addrs: []string{liar.URL, liveTS.URL}, Log: logs})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
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
				t.Errorf("dispatched=%d requeued=%d: the lease stating %q slots was accepted", st.GroupsDispatched, st.GroupsRequeued, stated)
			}
			if st.PerWorker[0].Slots != 1 {
				t.Errorf("stating %q slots set the budget to %d", stated, st.PerWorker[0].Slots)
			}
			if log := logs.String(); !strings.Contains(log, fmt.Sprintf("dist: stream from %s: stated %q slots", liar.URL, stated)) {
				t.Errorf("no stream error logged for the liar:\n%s", log)
			}
		})
	}
	t.Run("absent", func(t *testing.T) {
		var state atomic.Bool
		state.Store(true)
		stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if state.Load() {
				rw.Header().Set(slotsHeader, "3")
			}
			io.WriteString(rw, stream)
		}))
		defer stub.Close()
		co, err := New(Options{Addrs: []string{stub.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		points := sweepPoints(2, 2) // two shared-binary groups of two points
		for i, stating := range []bool{true, false} {
			state.Store(stating)
			if _, err := co.MeasureBatch(context.Background(), w, points[2*i:2*i+2], farm.Cycles); err != nil {
				t.Fatal(err)
			}
			if st := co.Stats(); st.PerWorker[0].Slots != 3 || st.GroupsRequeued != 0 {
				t.Fatalf("batch %d (stating %v): %d slots, %d requeued; want 3 slots, none requeued", i, stating, st.PerWorker[0].Slots, st.GroupsRequeued)
			}
		}
	})
}

// TestEmptyStaticFleetIsRefused pins the construction rule: with no worker
// address and no control address there is nothing to lease to, so New fails,
// and BackendFactory hands the failure to its fatal hook — also when
// -workers-addrs holds only separators.
func TestEmptyStaticFleetIsRefused(t *testing.T) {
	if co, err := New(Options{}); err == nil {
		co.Close()
		t.Fatal("New(Options{}) built a coordinator with no workers")
	}
	var fatal error
	build := BackendFactory("test", ",", "", func(err error) { fatal = err })
	if build == nil {
		t.Fatal(`BackendFactory with -workers-addrs "," returned no factory`)
	}
	build(farm.Options{})
	if fatal == nil {
		t.Fatal(`a factory over -workers-addrs "," did not reach fatal`)
	}
}

// TestDuplicateStaticAddressIsOneWorker pins one membership path: static
// addresses join through Register, so an address listed twice reclaims its
// entry like a worker registering twice, instead of doubling its slots.
func TestDuplicateStaticAddressIsOneWorker(t *testing.T) {
	co, err := New(Options{Addrs: []string{"127.0.0.1:1", "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if st := co.Stats(); len(st.PerWorker) != 1 || st.PerWorker[0].Slots != 1 {
		t.Fatalf("a twice-listed address: %+v, want one worker of 1 slot", st.PerWorker)
	}
}

// TestStaticWorkersStateTheirSlots pins one way to join the fleet: a worker
// named as a static address states its slots on its leases like a
// registered one, so a 1-slot worker never holds two leases at once, a
// 3-slot worker's budget reads 3 after one batch, and a worker that leaves
// and rejoins keeps the budget it last stated.
func TestStaticWorkersStateTheirSlots(t *testing.T) {
	ws := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(nil, 5*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	tsS := httptest.NewServer(ws.Handler())
	defer tsS.Close()
	defer ws.Close()
	wb := NewWorker(WorkerOptions{Workers: 3, Measure: stubMeasure(nil, 5*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	tsB := httptest.NewServer(wb.Handler())
	defer tsB.Close()
	defer wb.Close()
	co, err := New(Options{Addrs: []string{tsS.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Watch the small worker's leases while the batch runs.
	var peak atomic.Int64
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if n := co.Stats().PerWorker[0].InFlight; n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	w := workloads.MustGet("179.art", workloads.Train)
	_, err = co.MeasureBatch(context.Background(), w, randomPoints(16, 38), farm.Cycles)
	close(stop)
	<-watched
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("the 1-slot worker held %d leases at once, want 1", p)
	}
	if st := co.Stats(); st.PerWorker[0].Slots != 1 || st.PerWorker[1].Slots != 3 {
		t.Fatalf("budgets after one batch: %+v, want 1 and 3 slots", st.PerWorker)
	}
	if _, err := co.Deregister(tsB.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Register(tsB.URL); err != nil {
		t.Fatal(err)
	}
	if st := co.Stats(); st.PerWorker[1].Slots != 3 {
		t.Fatalf("a rejoined worker's budget: %d slots, want the 3 it stated", st.PerWorker[1].Slots)
	}
}

// TestCapacityWeightedDispatch pins the placement policy: with one 1-slot
// and one 3-slot worker and service time pinned equal, the big worker must
// carry roughly three times the jobs — uniform caps would split them evenly.
func TestCapacityWeightedDispatch(t *testing.T) {
	var small, big atomic.Int64
	ws := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(&small, 20*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	tsS := httptest.NewServer(ws.Handler())
	defer tsS.Close()
	defer ws.Close()
	wb := NewWorker(WorkerOptions{Workers: 3, Measure: stubMeasure(&big, 20*time.Millisecond), Heartbeat: 10 * time.Millisecond})
	tsB := httptest.NewServer(wb.Handler())
	defer tsB.Close()
	defer wb.Close()

	co, err := New(Options{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.Register(tsS.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Register(tsB.URL); err != nil {
		t.Fatal(err)
	}

	// 24 single-point groups with equal service time: the 3-slot worker
	// should complete ~3 for every 1 on the 1-slot worker.
	w := workloads.MustGet("179.art", workloads.Train)
	if _, err := co.MeasureBatch(context.Background(), w, randomPoints(24, 34), farm.Cycles); err != nil {
		t.Fatal(err)
	}
	nSmall, nBig := small.Load(), big.Load()
	if nSmall+nBig != 24 {
		t.Fatalf("fleet executed %d points, want 24", nSmall+nBig)
	}
	if nBig < 2*nSmall {
		t.Fatalf("capacity-weighted placement failed: 3-slot worker got %d, 1-slot got %d (want ≥2×)", nBig, nSmall)
	}
	st := co.Stats()
	if len(st.PerWorker) != 2 || st.PerWorker[0].Slots != 1 || st.PerWorker[1].Slots != 3 {
		t.Fatalf("stated slots lost: %+v", st.PerWorker)
	}
	if st.PerWorker[0].Groups+st.PerWorker[1].Groups != st.GroupsDispatched {
		t.Fatalf("per-worker groups %d+%d do not sum to dispatched %d",
			st.PerWorker[0].Groups, st.PerWorker[1].Groups, st.GroupsDispatched)
	}
}

// TestWarmWorkerStoreSurvivesCoordinatorRestart is the tentpole acceptance
// pin: a worker holding its own journaled store answers a repeat sweep from
// a brand-new coordinator (which lost all coordinator-side state) with zero
// simulations — the partitioned cache, not the coordinator store, carries
// the warmth. The worker's own restart is covered too: a new worker process
// over the same store files is just as warm.
func TestWarmWorkerStoreSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "worker-store.json")
	openWorkerStore := func() *farm.Store {
		st, err := farm.Open(storePath, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	var execs atomic.Int64
	wk := NewWorker(WorkerOptions{Workers: 2, Store: openWorkerStore(), Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(wk.Handler())

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(8, 35)

	co1, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := co1.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	cold := execs.Load()
	if cold != int64(len(points)) {
		t.Fatalf("cold sweep executed %d, want %d", cold, len(points))
	}

	// Coordinator "restarts" with nothing: fresh in-memory store, no cursor
	// state. The sweep repeats bit-identically with zero worker sims.
	co2, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co2.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if got[i] != want[i] {
			t.Fatalf("point %d changed across coordinator restart: %v -> %v", i, want[i], got[i])
		}
	}
	if n := execs.Load(); n != cold {
		t.Fatalf("warm sweep simulated: %d executions before, %d after", cold, n)
	}
	st := co2.Stats()
	if st.WorkerLocalHits != int64(len(points)) {
		t.Fatalf("worker local hits = %d, want %d", st.WorkerLocalHits, len(points))
	}
	if len(st.PerWorker) != 1 || st.PerWorker[0].LocalHits != int64(len(points)) {
		t.Fatalf("per-worker local hits: %+v", st.PerWorker)
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}

	// Worker restart: a new process over the same store files replays its
	// journal and stays warm.
	ts.Close()
	if err := wk.Close(); err != nil {
		t.Fatal(err)
	}
	wk2 := NewWorker(WorkerOptions{Workers: 2, Store: openWorkerStore(), Measure: stubMeasure(&execs, 0), Heartbeat: 10 * time.Millisecond})
	ts2 := httptest.NewServer(wk2.Handler())
	defer ts2.Close()
	defer wk2.Close()
	co3, err := New(Options{Addrs: []string{ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	got3, err := co3.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if got3[i] != want[i] {
			t.Fatalf("point %d changed across worker restart: %v -> %v", i, want[i], got3[i])
		}
	}
	if n := execs.Load(); n != cold {
		t.Fatalf("restarted worker simulated: %d executions total, want %d", n, cold)
	}
}

// TestCheckpointMergesWorkerDeltas pins the pull/merge path: a coordinator
// that never dispatched anything inherits a worker's journaled measurements
// through Checkpoint, serves them as cache hits, and re-merging the same
// store (a second checkpoint, or a fresh coordinator) is a conflict-free
// no-op.
func TestCheckpointMergesWorkerDeltas(t *testing.T) {
	dir := t.TempDir()
	wk := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	defer wk.Close()

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(6, 36)

	// Populate the worker's local store through a first coordinator.
	co1, err := New(Options{Addrs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := co1.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second coordinator with a durable store of its own measures nothing:
	// one checkpoint pulls the worker's whole store.
	openStore := func() *farm.Store {
		st, err := farm.Open(filepath.Join(dir, "coordinator.json"), nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	co2, err := New(Options{Addrs: []string{ts.URL}, Store: openStore()})
	if err != nil {
		t.Fatal(err)
	}
	if err := co2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := co2.Stats()
	if st.StoreMerges == 0 {
		t.Fatalf("checkpoint pulled no deltas: %+v", st)
	}
	if st.StoreMergeConflicts != 0 {
		t.Fatalf("identical values counted as conflicts: %d", st.StoreMergeConflicts)
	}
	if n := len(co2.Store().Entries()); n != 2*len(points) {
		t.Fatalf("merged store has %d entries, want %d (cycles+energy per point)", n, 2*len(points))
	}
	got, err := co2.MeasureBatch(context.Background(), w, points, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if got[i] != want[i] {
			t.Fatalf("merged value diverged at %d: %v -> %v", i, want[i], got[i])
		}
	}
	st = co2.Stats()
	if st.GroupsDispatched != 0 || st.CacheHits != int64(len(points)) {
		t.Fatalf("merged sweep went to the wire: dispatched=%d hits=%d", st.GroupsDispatched, st.CacheHits)
	}
	// A second checkpoint pulls the same store again; nothing in it is new,
	// so it is not a merge.
	merges := st.StoreMerges
	if err := co2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st = co2.Stats(); st.StoreMerges != merges {
		t.Fatalf("an unchanged store counted as a merge: %d -> %d", merges, st.StoreMerges)
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}

	// Coordinator restart after the merge: journal replay restores every
	// merged entry, and pulling the worker's store again changes nothing —
	// idempotence across restarts.
	co3, err := New(Options{Addrs: []string{ts.URL}, Store: openStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	if n := len(co3.Store().Entries()); n != 2*len(points) {
		t.Fatalf("restart lost merged entries: %d, want %d", n, 2*len(points))
	}
	if err := co3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = co3.Stats()
	if st.StoreMergeConflicts != 0 {
		t.Fatalf("re-merge after restart produced conflicts: %d", st.StoreMergeConflicts)
	}
	if n := len(co3.Store().Entries()); n != 2*len(points) {
		t.Fatalf("re-merge changed the store: %d entries, want %d", n, 2*len(points))
	}
}

// TestWorkerKillLosesNothingJournaled pins the crash half of the merge
// semantics: results stream into the coordinator's journal the moment they
// finish, so killing the worker before any checkpoint-time pull loses
// nothing — the pull is an optimization, not the durability path.
func TestWorkerKillLosesNothingJournaled(t *testing.T) {
	dir := t.TempDir()
	wk := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(wk.Handler())
	defer wk.Close()

	storePath := filepath.Join(dir, "coordinator.json")
	st, err := farm.Open(storePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Options{Addrs: []string{ts.URL}, Store: st})
	if err != nil {
		t.Fatal(err)
	}

	w := workloads.MustGet("179.art", workloads.Train)
	points := randomPoints(5, 37)
	if _, err := co.MeasureBatch(context.Background(), w, points, farm.Cycles); err != nil {
		t.Fatal(err)
	}

	// Kill the worker before any pull; checkpoint and close must still
	// succeed with every measured key durable.
	ts.Close()
	if err := co.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := farm.Open(storePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, p := range points {
		k := farm.Key(w, p)
		if _, _, ok := re.Get2(k, farm.EnergyKey(k)); !ok {
			t.Fatalf("worker kill lost %s from the coordinator journal", k)
		}
	}
}
