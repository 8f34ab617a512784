package sim

// runFused is the fused engine: Trace with the reference timing model
// (CPU.FeedDecoded) as its one consumer, entry by entry. It is the slow path
// of runTranslated and the EngineFused tier; the golden determinism test and
// TestFusedMatchesFeed hold it bit-for-bit equal to Step + feed per
// instruction. It emits no TraceEvents: the CPUs of its callers never have
// a Trace hook.
//
// Kept out of line: inlined into runTranslated, whose one-way slow path it
// is, the closure costs that function's hot loop ~25 % in register pressure
// (BenchmarkSimulatorThroughput, min of 25: 24–28 ms → 32–35 ms).
//
//go:noinline
func runFused(exe *Executor, cpu *CPU, maxInstrs int64) error {
	return exe.Trace(maxInstrs, func(ents []TraceEntry) {
		for i := range ents {
			cpu.FeedDecoded(exe.dec, ents[i])
		}
	})
}

// fusedChunkSize is the length of Trace's buffer: small enough to stay in
// the L1 data cache between the producer's writes and the consumer's reads.
const fusedChunkSize = 256

// Trace is the one trace pump: it executes the program until halt, fault or
// the instruction budget — a single functional pass, filled chunk by chunk
// by fillChunk — and hands every chunk of the committed trace to consume, in
// order, in the calling goroutine. consume must not retain a chunk past its
// return.
//
// When the producer faults, consume has returned from exactly the e.Count
// instructions that executed before the faulting one — the last chunk
// short, the faulting instruction never — and PC and Count are left at the
// faulting instruction; callers discard the consumer's results on error.
// Budget overruns surface as a typed fault (IsBudget reports true).
func (e *Executor) Trace(maxInstrs int64, consume func([]TraceEntry)) error {
	var buf [fusedChunkSize]TraceEntry
	for !e.Halted {
		n, err := e.fillChunk(buf[:], maxInstrs)
		consume(buf[:n])
		if err != nil {
			return err
		}
	}
	return nil
}
