package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
)

// scheduler is the single goroutine that leases queued groups, in FIFO
// order, to workers with free lease slots. It blocks while the queue is
// empty, every active worker is at its slot budget (backpressure: a huge
// batch queues here instead of overwhelming the workers), or the coordinator
// is draining. Whether a worker can take a lease does not depend on the
// group, so a head that cannot be placed means nothing behind it can.
func (c *Coordinator) scheduler() {
	defer close(c.schedDone)
	for {
		c.mu.Lock()
		var g *cgroup
		wi := -1
		for {
			if c.closed {
				c.mu.Unlock()
				return
			}
			if !c.draining && len(c.queue) > 0 {
				if wi = c.pickWorkerLocked(c.queue[0]); wi >= 0 {
					g, c.queue = c.queue[0], c.queue[1:]
					break
				}
			}
			c.cond.Wait()
		}
		w := c.workers[wi]
		wasLive := w.live
		w.inflight++
		g.lastWorker = wi
		c.leases++
		seq := c.leaseSeq
		c.leaseSeq++
		lctx, cancel := context.WithCancel(g.Ctx)
		c.leaseCancels[seq] = cancel
		c.mu.Unlock()
		// The first lease freezes the group, which later batches could add to
		// while it queued; a requeue finds it frozen. Every lease counts as a
		// dispatch.
		c.Start(g.Group)
		go c.runLease(g, w, wi, seq, lctx, wasLive)
	}
}

// pickWorkerLocked chooses the lease target by least relative load: among
// active workers with a free slot, pick the one with the smallest
// inflight/slots ratio, so a 3-slot worker carries ~3× the load of a 1-slot
// one. Suspect workers and the group's previous worker are deprioritized by
// loading the numerator; the comparison cross-multiplies to stay in integers.
// A worker sitting out a probe delay takes no lease.
func (c *Coordinator) pickWorkerLocked(g *cgroup) int {
	best, bestNum, bestSlots := -1, 0, 1
	now := time.Now()
	for i, w := range c.workers {
		if w.removed || w.inflight >= w.slots || now.Before(w.probeAfter) {
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

// probeDelay is how long a worker that was already suspect sits out after
// another failed lease, so a dead worker cannot hot-loop the scheduler (or
// burn a group's attempt budget) while the live workers are busy. The worker
// waits, not the group: the group goes back on the queue at once.
const probeDelay = 250 * time.Millisecond

// runLease executes one lease end to end: stream the group from the worker,
// then either complete the group with the streamed results or classify the
// lease failure — requeue on worker death or lease expiry, fail the group
// once the attempt budget is spent. The decision is taken under c.mu; the
// outcome reaches the planner after c.mu is released, and the lease counts as
// unwound (for Drain and Close) only once the planner has it. wasLive
// records whether the worker looked healthy at dispatch time: failures on an
// already-suspect worker don't spend the group's attempt budget as long as
// healthier workers exist.
// The workerRef is passed in (rather than re-indexed) because the worker
// slice header mutates under mu as registrations append; the ref itself is
// stable for the coordinator's lifetime.
func (c *Coordinator) runLease(g *cgroup, w *workerRef, wi int, seq int64, ctx context.Context, wasLive bool) {
	start := time.Now()
	results, errs, localHits, err := c.streamGroup(ctx, w, g, seq)
	busy := time.Since(start)

	c.mu.Lock()
	defer c.leaseCancels[seq]() // release the context once the bookkeeping is done
	delete(c.leaseCancels, seq)
	w.inflight--
	w.live = err == nil || ctx.Err() != nil // a cancelled lease says nothing about health
	c.Count(func() {
		pw := &c.perWorker[wi]
		pw.Jobs++
		pw.Busy += busy
		if err == nil {
			pw.Groups++
			pw.LocalHits += int64(localHits)
			c.disp.WorkerLocalHits += int64(localHits)
		}
	})

	// failure fails every task of the group; a failed lease without one has
	// requeued the group.
	var failure error
	switch {
	case err == nil:
	case g.Ctx.Err() != nil:
		// Every caller waiting on the group is gone; no point retrying for
		// nobody.
		failure = g.Ctx.Err()
	case c.closed:
		failure = farm.ErrClosed
	case c.draining:
		// Drain expired this lease: requeue so the group is visibly
		// abandoned-but-unlost; Close fails its waiters.
		g.attempts++
		c.requeueLocked(g)
		c.logf("dist: drain requeued %s group of %d", g.Workload().Key(), len(g.Tasks))
	case !wasLive && c.anyLiveLocked():
		// A fast failure on a worker that was already suspect, with
		// healthier workers around: requeue at once, keep the attempt budget
		// for failures that carry information, and sit the worker out for a
		// probe delay, after which the scheduler looks again.
		c.requeueLocked(g)
		w.probeAfter = time.Now().Add(probeDelay)
		time.AfterFunc(probeDelay, c.cond.Broadcast)
		c.logf("dist: requeued %s group of %d after probe of suspect %s: %v",
			g.Workload().Key(), len(g.Tasks), w.addr, err)
	case g.attempts+1 >= maxAttempts:
		g.attempts++
		failure = fmt.Errorf("dist: group failed after %d leases: %w", g.attempts, err)
	default:
		g.attempts++
		c.requeueLocked(g)
		c.logf("dist: requeued %s group of %d after lease failure on %s: %v",
			g.Workload().Key(), len(g.Tasks), w.addr, err)
	}
	c.mu.Unlock()
	c.cond.Broadcast() // a slot is free

	switch {
	case err == nil:
		c.Complete(g.Group, results, errs)
	case failure != nil:
		c.Fail(g.Group, failure)
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

// requeueLocked puts g back on the dispatch queue.
func (c *Coordinator) requeueLocked(g *cgroup) {
	c.Count(func() { c.disp.GroupsRequeued++ })
	c.queue = append(c.queue, g)
}

// streamGroup posts one group to a worker, takes the lease budget the
// response states (statedSlots) and consumes its ndjson stream with
// readLeaseStream.
func (c *Coordinator) streamGroup(ctx context.Context, w *workerRef, g *cgroup, seq int64) (_ []farm.Result, _ []error, localHits int, err error) {
	points := make([][]int64, len(g.Tasks))
	for i, t := range g.Tasks {
		points[i] = t.Job.Point
	}
	body, err := json.Marshal(GroupRequest{Lease: fmt.Sprintf("l%d", seq), Workload: g.Workload(), Points: points})
	if err != nil {
		return nil, nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/group", bytes.NewReader(body))
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
		return nil, nil, 0, fmt.Errorf("dist: worker %s: %s: %s", w.base, resp.Status, bytes.TrimSpace(msg))
	}
	if err := c.statedSlots(w, resp.Header.Get(slotsHeader)); err != nil {
		return nil, nil, 0, err
	}
	return readLeaseStream(ctx, resp.Body, len(g.Tasks), c.lease, w.base)
}

// statedSlots makes the slots a worker states on a lease response its lease
// budget. Stating nothing leaves the budget as it was; stating a count
// outside [1, maxSlots] breaches the protocol.
func (c *Coordinator) statedSlots(w *workerRef, stated string) error {
	if stated == "" {
		return nil
	}
	n, err := strconv.Atoi(stated)
	if err != nil || n < 1 || n > maxSlots {
		return &StreamError{Worker: w.base, Msg: fmt.Sprintf("stated %q slots", stated)}
	}
	c.mu.Lock()
	old := w.slots
	w.slots = n
	c.mu.Unlock()
	if old != n {
		c.cond.Broadcast() // a larger budget may place queued groups
		c.logf("dist: worker %s states %d slots", w.addr, n)
	}
	return nil
}

// StreamError is a lease whose response broke the protocol: a stated slot
// count outside [1, maxSlots], a result index out of range or repeated, a
// measured result without a positive cycle count, or a done line before every
// result or with a local-hit count outside [0, tasks]. Such a lease fails like any other, so its group goes to another
// lease, and nothing it streamed reaches a caller or the dispatch stats.
type StreamError struct {
	Worker string
	Msg    string
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("dist: stream from %s: %s", e.Worker, e.Msg)
}

// readLeaseStream consumes one lease's ndjson stream from body: heartbeat
// lines, one result line per task in any order, then a done line. Every line
// renews the lease; silence past lease means the worker died mid-group
// (crash, kill -9, network partition) and the lease expires. It returns the
// results only when every task got exactly one, and a *StreamError when the
// stream breaks the protocol. localHits reports how many of the group's
// points the worker answered from its own journaled store.
func readLeaseStream(ctx context.Context, body io.Reader, tasks int, lease time.Duration, worker string) (_ []farm.Result, _ []error, localHits int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the decoder once this returns
	breach := func(format string, args ...any) error {
		return &StreamError{Worker: worker, Msg: fmt.Sprintf(format, args...)}
	}
	lines := make(chan GroupLine)
	readErr := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(body)
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

	results := make([]farm.Result, tasks)
	errs := make([]error, tasks)
	seen := make([]bool, tasks) // a repeated index must not stand in for a missing one
	got := 0
	expire := time.NewTimer(lease)
	defer expire.Stop()
	for {
		select {
		case l := <-lines:
			if !expire.Stop() {
				<-expire.C
			}
			expire.Reset(lease)
			switch {
			case l.Heartbeat:
			case l.Done:
				if got != tasks {
					return nil, nil, 0, breach("incomplete group: %d/%d results", got, tasks)
				}
				if l.LocalHits < 0 || l.LocalHits > tasks {
					return nil, nil, 0, breach("%d local hits in a group of %d", l.LocalHits, tasks)
				}
				return results, errs, l.LocalHits, nil
			case l.Result:
				if l.Index < 0 || l.Index >= tasks {
					return nil, nil, 0, breach("result index %d out of range", l.Index)
				}
				if seen[l.Index] {
					return nil, nil, 0, breach("duplicate result index %d", l.Index)
				}
				if l.Error == "" && !(l.Cycles > 0) {
					return nil, nil, 0, breach("result %d measured %v cycles", l.Index, l.Cycles)
				}
				seen[l.Index] = true
				results[l.Index], errs[l.Index] = l.result()
				got++
			}
		case rerr := <-readErr:
			return nil, nil, 0, fmt.Errorf("dist: worker %s stream: %w", worker, rerr)
		case <-expire.C:
			return nil, nil, 0, fmt.Errorf("dist: lease expired: no line from %s in %s", worker, lease)
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		}
	}
}
