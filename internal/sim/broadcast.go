package sim

import (
	"sync"
	"sync/atomic"
)

// TraceChunkSize is the number of committed instructions per broadcast
// chunk. 4096 entries keep channel operations three orders of magnitude
// rarer than instructions while bounding buffering to a few hundred KiB.
const TraceChunkSize = 4096

// traceChunkPool is the size of the chunk pool, which bounds how far the
// functional producer may run ahead of the slowest timing consumer.
const traceChunkPool = 8

// fusedChunkSize is the length of Trace's buffer when one consumer runs in
// the calling goroutine: small enough to stay in the L1 data cache between
// the producer's writes and the consumer's reads.
const fusedChunkSize = 256

// traceChunk carries one block of the committed-instruction trace from the
// functional producer to the consumer goroutines; the last consumer done
// with it returns it to the pool.
type traceChunk struct {
	n    int
	refs atomic.Int32
	ents [TraceChunkSize]TraceEntry
}

// Trace is the one trace pump: it executes the program until halt, fault or
// the instruction budget — a single functional pass, filled chunk by chunk
// by fillChunk — and hands every chunk of the committed trace to every
// consumer, in order. A consumer must not retain a chunk past its return.
//
// One consumer runs in the calling goroutine over a fusedChunkSize buffer
// (the fused engine, smarts.Run). Several run one goroutine each, each
// owning its own timing state (caches, branch predictor, issue ring,
// energy), fed reference-counted chunks of TraceChunkSize from a bounded
// pool: the pool is the backpressure, so memory stays constant regardless
// of program length (SimulateMany, smarts.RunParallel). Because the
// functional stream is independent of any microarchitectural
// configuration, every consumer sees bit-for-bit the trace a private
// Executor would have produced. Trace needs at least one consumer.
//
// When the producer faults, every consumer has returned from exactly the
// e.Count instructions that executed before the faulting one — the last
// chunk short, the faulting instruction never — and PC and Count are left
// at the faulting instruction; callers discard the consumers' results on
// error. Budget overruns surface as a typed fault (IsBudget reports true).
func (e *Executor) Trace(maxInstrs int64, consumers ...func([]TraceEntry)) error {
	if len(consumers) < 2 {
		var buf [fusedChunkSize]TraceEntry
		for !e.Halted {
			n, err := e.fillChunk(buf[:], maxInstrs)
			consumers[0](buf[:n])
			if err != nil {
				return err
			}
		}
		return nil
	}

	// The pool capacity covers every chunk in flight, so neither a
	// consumer's return of a chunk nor the producer's send ever blocks on
	// anything but the slowest consumer.
	free := make(chan *traceChunk, traceChunkPool)
	for i := 0; i < traceChunkPool; i++ {
		free <- new(traceChunk)
	}
	outs := make([]chan *traceChunk, len(consumers))
	var wg sync.WaitGroup
	for k, consume := range consumers {
		out := make(chan *traceChunk, traceChunkPool)
		outs[k] = out
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ck := range out {
				consume(ck.ents[:ck.n])
				if ck.refs.Add(-1) == 0 {
					free <- ck
				}
			}
		}()
	}
	var err error
	for err == nil && !e.Halted {
		ck := <-free
		ck.n, err = e.fillChunk(ck.ents[:], maxInstrs)
		if ck.n == 0 {
			break
		}
		ck.refs.Store(int32(len(outs)))
		for _, out := range outs {
			out <- ck
		}
	}
	for _, out := range outs {
		close(out)
	}
	wg.Wait()
	return err
}
