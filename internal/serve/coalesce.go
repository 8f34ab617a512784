package serve

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// BatchFunc executes one measurement batch — in production,
// farm.Farm.MeasureBatch. It must return one value per point, in order.
type BatchFunc func(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error)

// Coalescer dispatches measure requests on arrival: while fewer batches are
// in flight than the farm has workers a request is submitted at once, as a
// batch of its own. Only when every slot is taken do arrivals for the same
// (workload, response) pair merge — duplicate points submitted once — into
// one pending batch, which starts the moment a running batch returns its
// slot. An idle farm therefore adds no latency, and a saturated one sees one
// large batch per key instead of a queue of small ones. Dispatching early
// never duplicates work: the farm deduplicates points in flight and answers
// finished ones from its store.
//
// Cancellation propagates per request: a caller whose context expires stops
// waiting immediately, and when every caller interested in a batch has gone
// the batch's own context is cancelled so the farm can stop early.
type Coalescer struct {
	run   BatchFunc
	slots int

	mu       sync.Mutex
	inFlight int
	pending  []*measureBatch // waiting for a slot, oldest first; one per key
	batches  int64
}

// measureBatch accumulates points for one (workload, response) pair until a
// slot frees.
type measureBatch struct {
	key    string
	w      workloads.Workload
	resp   farm.Response
	points []doe.Point
	index  map[string]int // point identity -> index in points

	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
	done    chan struct{}
	vals    []float64
	err     error
}

// NewCoalescer returns a coalescer over run that keeps at most slots batches
// in flight: the farm's worker count, so 0 means GOMAXPROCS as it does there.
func NewCoalescer(run BatchFunc, slots int) *Coalescer {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Coalescer{run: run, slots: slots}
}

func pointKey(p doe.Point) string {
	b := make([]byte, 0, len(p)*4)
	for _, v := range p {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ',')
	}
	return string(b)
}

// Measure submits points for workload w and blocks until the batch carrying
// them completes (or ctx expires). Values return in the order of pts.
func (c *Coalescer) Measure(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
	key := w.Key() + "|" + strconv.Itoa(int(resp))
	c.mu.Lock()
	var b *measureBatch
	// A short scan: at most one pending batch per key.
	if i := slices.IndexFunc(c.pending, func(p *measureBatch) bool { return p.key == key }); i >= 0 {
		b = c.pending[i]
	}
	fresh := b == nil
	if fresh {
		bctx, cancel := context.WithCancel(context.Background())
		b = &measureBatch{
			key: key, w: w, resp: resp,
			index: map[string]int{},
			ctx:   bctx, cancel: cancel,
			done: make(chan struct{}),
		}
	}
	// Record which batch slot each of this caller's points landed in
	// (duplicates within and across callers share a slot).
	slots := make([]int, len(pts))
	for i, p := range pts {
		pk := pointKey(p)
		j, dup := b.index[pk]
		if !dup {
			j = len(b.points)
			b.index[pk] = j
			b.points = append(b.points, p)
		}
		slots[i] = j
	}
	b.waiters++
	if fresh {
		if c.inFlight < c.slots {
			c.inFlight++
			c.batches++
			go c.dispatch(b)
		} else {
			c.pending = append(c.pending, b)
		}
	}
	c.mu.Unlock()

	select {
	case <-b.done:
		if b.err != nil {
			return nil, b.err
		}
		out := make([]float64, len(slots))
		for i, j := range slots {
			out[i] = b.vals[j]
		}
		return out, nil
	case <-ctx.Done():
		c.mu.Lock()
		b.waiters--
		if b.waiters == 0 {
			// Nobody left wants this batch: let the farm stop early, and if
			// it was still waiting for a slot unregister it, so a caller
			// arriving after the cancellation opens a fresh batch instead of
			// joining a doomed one.
			if i := slices.Index(c.pending, b); i >= 0 {
				c.pending = slices.Delete(c.pending, i, i+1)
				c.batches++
			}
			b.cancel()
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dispatch runs b on a slot the caller has claimed, then hands the slot to
// the oldest pending batch, and releases it when none is waiting.
func (c *Coalescer) dispatch(b *measureBatch) {
	for b != nil {
		b.vals, b.err = c.run(b.ctx, b.w, b.points, b.resp)
		close(b.done)
		b.cancel()

		c.mu.Lock()
		if len(c.pending) > 0 {
			b = c.pending[0]
			c.pending = slices.Delete(c.pending, 0, 1)
			c.batches++
		} else {
			b = nil
			c.inFlight--
		}
		c.mu.Unlock()
	}
}

// Batches reports how many farm batches have been dispatched (including
// batches cancelled before dispatch).
func (c *Coalescer) Batches() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// Pending reports how many batches are waiting for a farm slot.
func (c *Coalescer) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
