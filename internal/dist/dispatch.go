package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/farm"
)

// scheduler is the single goroutine that matches queued groups to workers
// with free lease slots. It blocks while the queue is empty, every active
// worker is at its slot budget (backpressure: a huge batch queues here
// instead of overwhelming the workers), or the coordinator is draining.
func (c *Coordinator) scheduler() {
	defer close(c.schedDone)
	for {
		c.mu.Lock()
		var req *dispatchReq
		wi := -1
		for {
			if c.closed {
				c.mu.Unlock()
				return
			}
			if !c.draining {
				if req, wi = c.takeDispatchableLocked(); req != nil {
					break
				}
			}
			c.cond.Wait()
		}
		w := c.workers[wi]
		wasLive := w.live
		w.inflight++
		req.g.leases++
		req.g.lastWorker = wi
		req.g.onWorkers[wi]++
		c.leases++
		seq := c.leaseSeq
		c.leaseSeq++
		lctx, cancel := context.WithCancel(req.g.Ctx)
		c.leaseCancels[seq] = cancel
		req.g.leaseSeqs[seq] = struct{}{}
		hedge := req.hedge
		c.Count(func() {
			c.disp.GroupsDispatched++
			if hedge {
				c.disp.GroupsHedged++
			}
		})
		c.mu.Unlock()
		// The first lease freezes the group, which later batches could add to
		// while it queued; a hedge or a requeue finds it frozen.
		c.Start(req.g.Group)
		go c.runLease(req.g, w, wi, seq, lctx, wasLive)
		if !hedge {
			go c.hedgeTimer(req.g)
		}
	}
}

// takeDispatchableLocked scans the queue for the first request that can be
// leased now, removes it and returns it with its placement. Requests for
// already-finished groups are dropped in passing. A hedge whose moment has
// passed — no eligible worker by the time it reaches the front — is dropped
// too, never left to camp on capacity that primary work needs; primaries
// keep strict FIFO order, so an undispatchable primary ends the scan (no
// later request can have capacity it lacks).
func (c *Coordinator) takeDispatchableLocked() (*dispatchReq, int) {
	i := 0
	for i < len(c.queue) {
		req := c.queue[i]
		if req.g.done {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			continue
		}
		wi := c.pickWorkerLocked(req.g, req.hedge)
		if wi >= 0 {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return req, wi
		}
		if req.hedge {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.logf("dist: dropping hedge for %s group: no spare capacity", req.g.Workload().Key())
			continue
		}
		return nil, -1
	}
	return nil, -1
}

// pickWorkerLocked chooses the lease target by least relative load: among
// active workers with a free slot — excluding, for hedges, workers already
// leasing this group — pick the one with the smallest inflight/slots ratio,
// so a 3-slot worker carries ~3× the load of a 1-slot one. Suspect workers
// and the group's previous worker are deprioritized by loading the
// numerator; the comparison cross-multiplies to stay in integers.
func (c *Coordinator) pickWorkerLocked(g *cgroup, hedge bool) int {
	best, bestNum, bestSlots := -1, 0, 1
	for i, w := range c.workers {
		if w.removed || w.inflight >= w.slots {
			continue
		}
		if hedge && g.onWorkers[i] > 0 {
			continue
		}
		num := w.inflight * 4
		if !w.live {
			num += 2
		}
		if i == g.lastWorker {
			num++
		}
		// num/slots < bestNum/bestSlots ⇔ num·bestSlots < bestNum·slots.
		if best == -1 || num*bestSlots < bestNum*w.slots {
			best, bestNum, bestSlots = i, num, w.slots
		}
	}
	return best
}

// hedgeTimer re-queues a group for a second lease if it is still running
// once its primary lease outlives the hedging threshold (~p95 of completed
// group latencies, floored at HedgeMin). The first lease to finish wins via
// settleLocked; the loser's context is cancelled there.
func (c *Coordinator) hedgeTimer(g *cgroup) {
	if c.hedgeMin < 0 {
		return
	}
	delay := c.hedgeDelay()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-g.finished:
		return
	case <-timer.C:
	}
	c.mu.Lock()
	if !g.done && !g.hedged && !c.draining && !c.closed && g.leases > 0 {
		// A hedge is strictly opportunistic: it must never overcommit a
		// worker's slot budget and never queue ahead of primary work that is
		// itself waiting for capacity. No eligible worker right now means no
		// hedge at all — by the time capacity frees, a queued twin would be
		// stale anyway (takeDispatchableLocked drops that race's leftovers).
		if c.pickWorkerLocked(g, true) == -1 || c.queuedPrimariesLocked() {
			c.mu.Unlock()
			return
		}
		g.hedged = true
		c.queue = append(c.queue, &dispatchReq{g: g, hedge: true})
		c.logf("dist: hedging %s group of %d after %s", g.Workload().Key(), len(g.Tasks), delay.Round(time.Millisecond))
		c.mu.Unlock()
		c.cond.Broadcast()
		return
	}
	c.mu.Unlock()
}

// queuedPrimariesLocked reports whether primary (non-hedge) dispatches are
// waiting; a hedge has no business taking a slot a real group needs.
func (c *Coordinator) queuedPrimariesLocked() bool {
	for _, r := range c.queue {
		if !r.hedge && !r.g.done {
			return true
		}
	}
	return false
}

// hedgeDelay is the straggler threshold: p95 of recently completed group
// lease latencies, floored at HedgeMin; before enough groups completed to
// estimate a tail, the floor alone applies.
func (c *Coordinator) hedgeDelay() time.Duration {
	var lats []float64
	c.Count(func() { lats = append(lats, c.latencies...) })
	if len(lats) < 3 {
		return c.hedgeMin
	}
	sort.Float64s(lats)
	p95 := lats[(len(lats)-1)*95/100]
	d := time.Duration(p95 * float64(time.Second))
	if d < c.hedgeMin {
		d = c.hedgeMin
	}
	return d
}

// probeDelay spaces out redispatches after a failure on a worker that was
// already suspect, so a dead worker cannot hot-loop the scheduler (or burn a
// group's attempt budget) while the live workers are busy.
const probeDelay = 250 * time.Millisecond

// runLease executes one lease end to end: stream the group from the worker,
// then either settle the group with the merged results (first finisher wins)
// or classify the lease failure — requeue on worker death or lease expiry,
// fail the group once the attempt budget is spent, stand down silently if a
// hedge twin is still running. The decision is taken under c.mu; the outcome
// reaches the planner after c.mu is released, and the lease counts as
// unwound (for Drain and Close) only once the planner has it. wasLive
// records whether the worker looked healthy at dispatch time: failures on an
// already-suspect worker don't spend the group's attempt budget as long as
// healthier workers exist.
// The workerRef is passed in (rather than re-indexed) because the worker
// slice header mutates under mu as registrations append; the ref itself is
// stable for the coordinator's lifetime.
func (c *Coordinator) runLease(g *cgroup, w *workerRef, wi int, seq int64, ctx context.Context, wasLive bool) {
	start := time.Now()
	results, errs, localHits, err := c.streamGroup(ctx, w.base, g, seq)
	busy := time.Since(start)

	c.mu.Lock()
	if cancel, ok := c.leaseCancels[seq]; ok {
		delete(c.leaseCancels, seq)
		defer cancel() // release the context once the bookkeeping is done
	}
	delete(g.leaseSeqs, seq)
	w.inflight--
	g.leases--
	if g.onWorkers[wi]--; g.onWorkers[wi] <= 0 {
		delete(g.onWorkers, wi)
	}
	w.live = err == nil || ctx.Err() != nil // a cancelled lease says nothing about health
	c.Count(func() {
		pw := &c.perWorker[wi]
		pw.Jobs++
		pw.Busy += busy
		if err == nil {
			pw.Groups++
			pw.LocalHits += int64(localHits)
			c.disp.WorkerLocalHits += int64(localHits)
			c.latencies = append(c.latencies, busy.Seconds())
			if len(c.latencies) > 512 {
				c.latencies = append(c.latencies[:0], c.latencies[256:]...)
			}
		}
	})

	// settled: this lease decides the group's outcome — the streamed results,
	// or failure for every task when the group fails as a whole.
	settled := false
	var failure error
	switch {
	case g.done:
		// A hedge twin already settled the group; this copy is discarded —
		// the dedup that makes hedging exactly-once.
	case err == nil:
		c.settleLocked(g)
		settled = true
	case g.Ctx.Err() != nil:
		// Every caller waiting on the group is gone; no point retrying for
		// nobody.
		c.settleLocked(g)
		settled, failure = true, g.Ctx.Err()
	case g.leases > 0:
		// A twin lease is still running; let it race to the finish.
		c.logf("dist: lease on %s failed (%v), twin still running", w.addr, err)
	case c.closed:
		c.settleLocked(g)
		settled, failure = true, farm.ErrClosed
	case c.draining:
		// Drain expired this lease: requeue so the group is visibly
		// abandoned-but-unlost; Close fails its waiters.
		g.attempts++
		c.requeueLocked(g, 0)
		c.logf("dist: drain requeued %s group of %d", g.Workload().Key(), len(g.Tasks))
	case !wasLive && c.anyLiveLocked():
		// A fast failure on a worker that was already suspect, with
		// healthier workers around: redispatch after a probe delay and keep
		// the attempt budget for failures that carry information.
		c.requeueLocked(g, probeDelay)
		c.logf("dist: requeued %s group of %d after probe of suspect %s: %v",
			g.Workload().Key(), len(g.Tasks), w.addr, err)
	case g.attempts+1 >= c.maxAttempts:
		g.attempts++
		c.settleLocked(g)
		settled, failure = true, fmt.Errorf("dist: group failed after %d leases: %w", g.attempts, err)
	default:
		g.attempts++
		c.requeueLocked(g, 0)
		c.logf("dist: requeued %s group of %d after lease failure on %s: %v",
			g.Workload().Key(), len(g.Tasks), w.addr, err)
	}
	c.mu.Unlock()
	c.cond.Broadcast() // a slot is free

	switch {
	case failure != nil:
		c.Fail(g.Group, failure)
	case settled:
		c.Complete(g.Group, results, errs)
	}
	c.mu.Lock()
	c.leases--
	c.mu.Unlock()
	c.cond.Broadcast() // Drain and Close wait for leases to unwind
}

// anyLiveLocked reports whether some active worker still looks healthy.
func (c *Coordinator) anyLiveLocked() bool {
	for _, w := range c.workers {
		if w.live && !w.removed {
			return true
		}
	}
	return false
}

// requeueLocked puts g back on the dispatch queue, immediately or after a
// delay. A group still waiting out its delay when the coordinator closes is
// failed by Close, not requeued.
func (c *Coordinator) requeueLocked(g *cgroup, delay time.Duration) {
	c.Count(func() { c.disp.GroupsRequeued++ })
	if delay <= 0 {
		c.queue = append(c.queue, &dispatchReq{g: g})
		return
	}
	time.AfterFunc(delay, func() {
		c.mu.Lock()
		if !g.done && !c.closed {
			c.queue = append(c.queue, &dispatchReq{g: g})
		}
		c.mu.Unlock()
		c.cond.Broadcast()
	})
}

// streamGroup posts one group to a worker and consumes its ndjson stream.
// Every line — heartbeat or result — renews the lease; silence past the
// lease timeout means the worker died mid-group (crash, kill -9, network
// partition) and the lease expires. localHits reports how many of the
// group's points the worker answered from its own journaled store.
func (c *Coordinator) streamGroup(ctx context.Context, base string, g *cgroup, seq int64) (_ []farm.Result, _ []error, localHits int, err error) {
	body, err := json.Marshal(GroupRequest{
		Lease:    fmt.Sprintf("l%d", seq),
		Workload: toWire(g.Workload()),
		Points:   wirePoints(g.Tasks),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/group", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, 0, fmt.Errorf("dist: worker %s: %s: %s", base, resp.Status, bytes.TrimSpace(msg))
	}

	lines := make(chan GroupLine)
	readErr := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(resp.Body)
		for {
			var l GroupLine
			if derr := dec.Decode(&l); derr != nil {
				readErr <- derr
				return
			}
			select {
			case lines <- l:
			case <-ctx.Done():
				return
			}
		}
	}()

	results := make([]farm.Result, len(g.Tasks))
	errs := make([]error, len(g.Tasks))
	got := 0
	expire := time.NewTimer(c.lease)
	defer expire.Stop()
	for {
		select {
		case l := <-lines:
			if !expire.Stop() {
				<-expire.C
			}
			expire.Reset(c.lease)
			switch {
			case l.Heartbeat:
			case l.Done:
				if got != len(g.Tasks) {
					return nil, nil, 0, fmt.Errorf("dist: incomplete group from %s: %d/%d results", base, got, len(g.Tasks))
				}
				return results, errs, l.LocalHits, nil
			case l.Result:
				if l.Index < 0 || l.Index >= len(results) {
					return nil, nil, 0, fmt.Errorf("dist: result index %d out of range from %s", l.Index, base)
				}
				results[l.Index], errs[l.Index] = l.result()
				got++
			}
		case rerr := <-readErr:
			return nil, nil, 0, fmt.Errorf("dist: worker %s stream: %w", base, rerr)
		case <-expire.C:
			return nil, nil, 0, fmt.Errorf("dist: lease expired: no line from %s in %s", base, c.lease)
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		}
	}
}
