package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// coalesceValue mirrors the farm-test convention: a deterministic fake
// measurement derived from the point, so distribution can be verified.
func coalesceValue(p doe.Point) float64 {
	v := 1.0
	for _, x := range p {
		v = v*31 + float64(x)
	}
	return v
}

// blockingBatch is a BatchFunc that announces each batch on started and then
// holds it until release is closed (or the batch context is cancelled), so a
// test decides when the farm is saturated and when a slot frees — no timer.
type blockingBatch struct {
	started chan []doe.Point
	release chan struct{}
}

func newBlockingBatch() *blockingBatch {
	// Buffered beyond any test's batch count, so run never blocks announcing.
	return &blockingBatch{started: make(chan []doe.Point, 64), release: make(chan struct{})}
}

func (bb *blockingBatch) run(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
	bb.started <- pts
	select {
	case <-bb.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = coalesceValue(p)
	}
	return out, nil
}

// waitPending blocks until the coalescer holds want pending batches whose
// waiters sum to waiters — the event "every client has arrived and merged".
func waitPending(t *testing.T, c *Coalescer, want, waiters int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		n, sum := len(c.pending), 0
		for _, b := range c.pending {
			sum += b.waiters
		}
		c.mu.Unlock()
		if n == want && sum == waiters {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending batches %d with %d waiters, want %d with %d", n, sum, want, waiters)
		}
		time.Sleep(time.Millisecond)
	}
}

// measureAll starts one Measure per client and returns a function that waits
// for them all and fails the test on a wrong value. Client i asks for the
// overlapping pair shared[i], shared[i+1].
func measureAll(t *testing.T, c *Coalescer, w workloads.Workload, shared []doe.Point, clients int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts := []doe.Point{shared[i%len(shared)], shared[(i+1)%len(shared)]}
			vals, err := c.Measure(context.Background(), w, pts, farm.Cycles)
			if err != nil {
				t.Error(err)
				return
			}
			for j, p := range pts {
				if vals[j] != coalesceValue(p) {
					t.Errorf("client %d got %v for its point %d", i, vals[j], j)
				}
			}
		}(i)
	}
	return wg.Wait
}

// sharedPoints is testPoints as the coalescer takes them.
func sharedPoints(n int, seed int64) []doe.Point {
	out := make([]doe.Point, n)
	for i, p := range testPoints(n, seed) {
		out[i] = p
	}
	return out
}

// TestCoalesceLoneRequestDispatchesOnArrival: with a free slot a request is
// handed to the farm at once — it is running before any window could close,
// because there is no window.
func TestCoalesceLoneRequestDispatchesOnArrival(t *testing.T) {
	bb := newBlockingBatch()
	c := NewCoalescer(bb.run, 1)
	w := workloads.MustGet("179.art", workloads.Train)
	shared := sharedPoints(2, 1)
	wait := measureAll(t, c, w, shared, 1)
	select {
	case pts := <-bb.started:
		if len(pts) != 2 {
			t.Fatalf("lone request's batch carried %d points, want 2", len(pts))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lone request was never dispatched")
	}
	if n, p := c.Batches(), c.Pending(); n != 1 || p != 0 {
		t.Fatalf("batches %d pending %d while the lone request runs, want 1 and 0", n, p)
	}
	close(bb.release)
	wait()
}

// TestCoalesceSaturatedFarmMergesArrivals: K clients with overlapping points
// arriving while the only slot is taken merge into exactly one batch, with
// duplicate points submitted once, which starts when the slot frees; every
// client sees its own values in its own order.
func TestCoalesceSaturatedFarmMergesArrivals(t *testing.T) {
	bb := newBlockingBatch()
	c := NewCoalescer(bb.run, 1)
	w := workloads.MustGet("179.art", workloads.Train)
	blocker := measureAll(t, c, w, sharedPoints(2, 2), 1)
	<-bb.started // the farm is now saturated

	const clients = 30
	shared := sharedPoints(8, 1)
	wait := measureAll(t, c, w, shared, clients)
	waitPending(t, c, 1, clients)
	select {
	case <-bb.started:
		t.Fatal("merged batch started while the slot was taken")
	default:
	}
	if n := c.Batches(); n != 1 {
		t.Fatalf("%d batches counted before the slot freed, want 1", n)
	}

	close(bb.release)
	blocker()
	wait()
	if pts := <-bb.started; len(pts) != len(shared) {
		t.Fatalf("merged batch carried %d points, want %d deduped", len(pts), len(shared))
	}
	if n, p := c.Batches(), c.Pending(); n != 2 || p != 0 {
		t.Fatalf("batches %d pending %d, want 2 (blocker + one merged) and 0", n, p)
	}
}

// TestCoalesceBurstBoundedBySlotsPlusOne pins the burst bound: K clients of
// one key against C slots cause at most C + 1 batches — C dispatched on
// arrival, the rest merged into the one that waits.
func TestCoalesceBurstBoundedBySlotsPlusOne(t *testing.T) {
	const slots, clients = 3, 12
	bb := newBlockingBatch()
	c := NewCoalescer(bb.run, slots)
	w := workloads.MustGet("164.gzip", workloads.Train)
	wait := measureAll(t, c, w, sharedPoints(clients, 2), clients)
	for i := 0; i < slots; i++ {
		<-bb.started
	}
	waitPending(t, c, 1, clients-slots)
	close(bb.release)
	wait()
	if n := c.Batches(); n != slots+1 {
		t.Fatalf("%d clients against %d slots caused %d batches, want %d", clients, slots, n, slots+1)
	}
}

// TestCoalescePendingIsPerKey: arrivals for different workloads never share
// a batch; each key waits in its own.
func TestCoalescePendingIsPerKey(t *testing.T) {
	bb := newBlockingBatch()
	c := NewCoalescer(bb.run, 1)
	gzip := workloads.MustGet("164.gzip", workloads.Train)
	vpr := workloads.MustGet("175.vpr", workloads.Train)
	shared := sharedPoints(2, 4)
	blocker := measureAll(t, c, gzip, shared, 1)
	<-bb.started
	waitGzip := measureAll(t, c, gzip, shared, 2)
	waitVpr := measureAll(t, c, vpr, shared, 2)
	waitPending(t, c, 2, 4)
	close(bb.release)
	blocker()
	waitGzip()
	waitVpr()
	if n := c.Batches(); n != 3 {
		t.Fatalf("%d batches for a blocker and two waiting keys, want 3", n)
	}
}

// TestCoalesceCancelPropagates: when every waiter of a batch gives up, the
// batch context is cancelled so the farm can stop, and each waiter gets its
// own context error; a batch still waiting for a slot is unregistered, so a
// later arrival opens a fresh one.
func TestCoalesceCancelPropagates(t *testing.T) {
	bb := newBlockingBatch()
	c := NewCoalescer(bb.run, 1)
	w := workloads.MustGet("175.vpr", workloads.Train)
	pt := sharedPoints(1, 3)

	measure := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Measure(ctx, w, pt, farm.Cycles)
			done <- err
		}()
		return done
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	running := measure(runCtx)
	<-bb.started
	waitCtx, cancelWait := context.WithCancel(context.Background())
	first, second := measure(waitCtx), measure(waitCtx)
	waitPending(t, c, 1, 2)

	// Both waiters of the pending batch leave: it is dropped without ever
	// reaching the farm, and still counted.
	cancelWait()
	for _, done := range []chan error{first, second} {
		if err := <-done; err != context.Canceled {
			t.Fatalf("pending waiter got %v, want context.Canceled", err)
		}
	}
	if n, p := c.Batches(), c.Pending(); n != 2 || p != 0 {
		t.Fatalf("batches %d pending %d after the pending batch was abandoned, want 2 and 0", n, p)
	}

	// The running batch's only waiter leaves: its context is cancelled (the
	// stub returns on ctx.Done, never on release) and the slot frees.
	cancelRun()
	if err := <-running; err != context.Canceled {
		t.Fatalf("running waiter got %v, want context.Canceled", err)
	}
	after := measure(context.Background())
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("slot never freed after the running batch was cancelled")
	}
	close(bb.release)
	if err := <-after; err != nil {
		t.Fatal(err)
	}
	select {
	case <-bb.started:
		t.Fatal("the abandoned pending batch reached the farm")
	default:
	}
}
