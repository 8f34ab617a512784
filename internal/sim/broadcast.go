package sim

import "sync/atomic"

// TraceChunkSize is the number of committed instructions per broadcast
// chunk. 4096 entries keep channel operations three orders of magnitude
// rarer than instructions while bounding buffering to a few hundred KiB.
const TraceChunkSize = 4096

// traceChunkPool is the size of the chunk pool, which bounds how far the
// functional producer may run ahead of the slowest timing consumer.
const traceChunkPool = 8

// TraceChunk carries one block of the committed-instruction trace from the
// functional producer to the timing consumers. Consumers must not retain a
// chunk past Release.
type TraceChunk struct {
	N    int
	refs atomic.Int32
	Ents [TraceChunkSize]TraceEntry
}

// TraceBroadcaster fans one functional execution of a program out to many
// timing consumers: a producer interprets the program exactly once and
// broadcasts the committed trace in reference-counted chunks, each consumer
// owning its own timing state (caches, branch predictor, issue ring,
// energy). Consumers apply backpressure through the bounded chunk pool, so
// memory stays constant regardless of program length. Because the
// functional stream is independent of any microarchitectural configuration,
// every consumer sees bit-for-bit the same trace a private Executor would
// have produced — the invariant behind both smarts.RunParallel and
// SimulateMany.
type TraceBroadcaster struct {
	free chan *TraceChunk
	outs []chan *TraceChunk
}

// NewTraceBroadcaster prepares a broadcaster for the given number of
// consumers.
func NewTraceBroadcaster(consumers int) *TraceBroadcaster {
	b := &TraceBroadcaster{
		free: make(chan *TraceChunk, traceChunkPool),
		outs: make([]chan *TraceChunk, consumers),
	}
	for i := 0; i < traceChunkPool; i++ {
		b.free <- new(TraceChunk)
	}
	for k := range b.outs {
		b.outs[k] = make(chan *TraceChunk, traceChunkPool)
	}
	return b
}

// Out returns consumer k's chunk channel. It is closed when the producer
// finishes; the consumer must call Release on every chunk received.
func (b *TraceBroadcaster) Out(k int) <-chan *TraceChunk { return b.outs[k] }

// Release returns a chunk to the pool once the last consumer is done with
// it. The pool capacity covers every chunk in flight, so the send never
// blocks.
func (b *TraceBroadcaster) Release(ck *TraceChunk) {
	if ck.refs.Add(-1) == 0 {
		b.free <- ck
	}
}

// Broadcast runs the single functional pass: it fills chunks from exe until
// halt, fault, or the instruction budget, broadcasting each to every
// consumer, then closes the consumer channels. When the producer faults,
// every consumer has been sent exactly the exe.Count instructions that
// executed before the faulting one — the last chunk short, the faulting
// instruction never — which is what runFused's inline CPU has timed at the
// same point; callers discard the consumers' results on error. Budget
// overruns surface as a typed fault (IsBudget reports true).
func (b *TraceBroadcaster) Broadcast(exe *Executor, maxInstrs int64) error {
	var err error
	for err == nil && !exe.Halted {
		ck := <-b.free
		ck.N, err = exe.fillChunk(ck.Ents[:], maxInstrs)
		if ck.N == 0 {
			b.free <- ck
			break
		}
		ck.refs.Store(int32(len(b.outs)))
		for k := range b.outs {
			b.outs[k] <- ck
		}
	}
	for k := range b.outs {
		close(b.outs[k])
	}
	return err
}
