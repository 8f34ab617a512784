package smarts

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
)

// countedLoop returns a program that executes exactly 6n+4 instructions — a
// store, a load and a branch per iteration, so sampler and chunk boundaries
// cut through memory and control entries alike — and then runs tail.
func countedLoop(n int64, tail isa.Instr) *isa.Program {
	return &isa.Program{DataSize: 8, Instrs: []isa.Instr{
		{Op: isa.OpLui, Rd: 11, Imm: 0},
		{Op: isa.OpLui, Rd: 13, Imm: n},
		{Op: isa.OpLui, Rd: 15, Imm: isa.GlobalBase},
		{Op: isa.OpBge, Rs1: 11, Rs2: 13, Target: 9},
		{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: isa.RegRV, Rs2: 11},
		{Op: isa.OpStore, Rs1: 15, Rs2: isa.RegRV},
		{Op: isa.OpLoad, Rd: 14, Rs1: 15},
		{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: 1},
		{Op: isa.OpJump, Target: 3},
		tail,
	}}
}

var halt = isa.Instr{Op: isa.OpHalt}

// edgeSamplers are the shapes span has to get right: where the warmup sits
// relative to the period boundary, and the degenerate window and interval.
var edgeSamplers = []Sampler{
	{WindowSize: 100, Interval: 5, Offset: 2},                // no warmup
	{WindowSize: 100, Interval: 5, Offset: 2, Warmup: 30},    // warmup inside the period
	{WindowSize: 100, Interval: 5, Offset: 0, Warmup: 30},    // warmup wraps the period end
	{WindowSize: 100, Interval: 5, Offset: 1, Warmup: 150},   // wraps, longer than what precedes the window
	{WindowSize: 100, Interval: 5, Offset: 2, Warmup: 400},   // == period - WindowSize: everything detailed
	{WindowSize: 100, Interval: 5, Offset: 2, Warmup: 10000}, // far beyond the period
	{WindowSize: 100, Interval: 5, Offset: 4, Warmup: 30},    // Offset = Interval-1: window ends the period
	{WindowSize: 1, Interval: 50, Offset: 3, Warmup: 2},
	{WindowSize: 100, Interval: 1},
	{WindowSize: 100, Interval: 1, Warmup: 50},
}

// TestSpanMatchesPerInstructionRule checks span, phase by phase, against the
// rule it batches: measured iff the phase lies in the window; detailed iff
// measured or within Warmup instructions before the next window, wrapping
// across the period boundary. Each span must be uniform, stay inside the
// period, and be maximal.
func TestSpanMatchesPerInstructionRule(t *testing.T) {
	for _, s := range edgeSamplers {
		st := newSampleState(s, sim.DefaultConfig(), nil)
		classify := func(ph int64) (detailed, measured bool) {
			if ph >= st.mStart && ph < st.mEnd {
				return true, true
			}
			d := st.mStart - ph
			if d <= 0 {
				d += st.period
			}
			return d <= s.Warmup, false
		}
		for ph := int64(0); ph < st.period; ph++ {
			st.phase = ph
			detailed, measured, n := st.span()
			if n <= 0 || ph+n > st.period {
				t.Fatalf("%+v phase %d: span length %d leaves the period %d", s, ph, n, st.period)
			}
			for q := ph; q < ph+n; q++ {
				if d, m := classify(q); d != detailed || m != measured {
					t.Fatalf("%+v phase %d: span (%v,%v,%d) but phase %d is (%v,%v)", s, ph, detailed, measured, n, q, d, m)
				}
			}
			if ph+n < st.period {
				if d, m := classify(ph + n); d == detailed && m == measured {
					t.Errorf("%+v phase %d: span of %d is not maximal", s, ph, n)
				}
			}
		}
	}
}

// TestFeedChunkIsChunkSizeInvariant feeds one recorded trace through
// feedChunk in chunks of 1 (the per-instruction walk through the same
// kernels), 7, 256 and TraceChunkSize, and requires the same samples, the
// same window count and the same recorded regions — entry phase, warm
// snapshot and trace slice — every time.
func TestFeedChunkIsChunkSizeInvariant(t *testing.T) {
	exe := sim.NewExecutor(countedLoop(1500, halt))
	var trace []sim.TraceEntry
	if err := exe.Trace(1<<40, func(ents []sim.TraceEntry) { trace = append(trace, ents...) }); err != nil {
		t.Fatal(err)
	}
	if int64(len(trace)) != exe.Count || len(trace) < 2*sim.TraceChunkSize {
		t.Fatalf("recorded %d entries of %d executed", len(trace), exe.Count)
	}
	cfg := sim.DefaultConfig()
	cfg.L2KB, cfg.BPredSize = 256, 1024 // small warm snapshots

	for _, s := range edgeSamplers {
		var ref *sampleState
		for _, size := range []int{1, 7, 256, sim.TraceChunkSize} {
			st := newSampleState(s, cfg, exe.Decoded())
			st.rec = &CheckpointSet{}
			for rest := trace; len(rest) > 0; {
				n := min(size, len(rest))
				st.feedChunk(rest[:n])
				rest = rest[n:]
			}
			st.flush()
			if len(st.cpis) == 0 || len(st.rec.regions) == 0 {
				t.Fatalf("%+v chunk %d: %d windows, %d regions", s, size, len(st.cpis), len(st.rec.regions))
			}
			if ref == nil {
				ref = st
				continue
			}
			if !reflect.DeepEqual(st.cpis, ref.cpis) || !reflect.DeepEqual(st.epis, ref.epis) {
				t.Errorf("%+v chunk %d: samples differ from the per-instruction walk (%d vs %d windows)", s, size, len(st.cpis), len(ref.cpis))
			}
			if st.phase != ref.phase {
				t.Errorf("%+v chunk %d: ends at phase %d, want %d", s, size, st.phase, ref.phase)
			}
			if len(st.rec.regions) != len(ref.rec.regions) {
				t.Errorf("%+v chunk %d: %d regions, want %d", s, size, len(st.rec.regions), len(ref.rec.regions))
				continue
			}
			for i := range ref.rec.regions {
				if !reflect.DeepEqual(st.rec.regions[i], ref.rec.regions[i]) {
					got, want := st.rec.regions[i], ref.rec.regions[i]
					t.Errorf("%+v chunk %d: region %d (phase %d, %d entries) differs from (phase %d, %d entries)",
						s, size, i, got.phase, len(got.ents), want.phase, len(want.ents))
					break
				}
			}
		}
	}
}

// TestOneDriveBehindEveryEntryPoint: Run, RunParallel with one worker, and
// each per-offset population of a three-worker shared-trace run are the
// same Result, and the three-worker estimate is the pool of exactly those.
func TestOneDriveBehindEveryEntryPoint(t *testing.T) {
	prog := countedLoop(5000, halt)
	cfg := sim.DefaultConfig()
	s := Sampler{WindowSize: 200, Interval: 9, Offset: 1, Warmup: 40}
	const budget = 1 << 30

	single, err := Run(prog, cfg, s, budget)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunParallel(prog, cfg, s, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, one) {
		t.Errorf("RunParallel(1) = %+v, Run = %+v", one, single)
	}

	samplers := make([]Sampler, 3)
	for k := range samplers {
		samplers[k] = s
		samplers[k].Offset = s.Offset + int64(k)*(s.Interval/3)
	}
	shared, err := drive(prog, cfg, samplers, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, sk := range samplers {
		alone, err := Run(prog, cfg, sk, budget)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Windows == 0 || !reflect.DeepEqual(shared[k], alone) {
			t.Errorf("offset %d: shared-trace population %+v, Run %+v", sk.Offset, shared[k], alone)
		}
	}
	pooled, err := RunParallel(prog, cfg, s, budget, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := pool(shared); !reflect.DeepEqual(pooled, want) {
		t.Errorf("RunParallel(3) = %+v, pool of its populations = %+v", pooled, want)
	}
}

// entryPoints runs the same sampled measurement through every driver of
// the trace pump.
func entryPoints(prog *isa.Program, s Sampler, maxInstrs int64) map[string]error {
	cfg := sim.DefaultConfig()
	_, runErr := Run(prog, cfg, s, maxInstrs)
	_, parErr := RunParallel(prog, cfg, s, maxInstrs, 3)
	_, _, ckptErr := RunCheckpointed(NewStore(0), prog, cfg, s, maxInstrs)
	return map[string]error{"Run": runErr, "RunParallel": parErr, "RunCheckpointed": ckptErr}
}

// TestBudgetAtChunkBoundaries: a run that needs more instructions than its
// budget is ErrBudget from every entry point wherever the budget falls
// relative to either chunk size, and a budget of exactly the run length is
// enough.
func TestBudgetAtChunkBoundaries(t *testing.T) {
	prog := countedLoop(2000, halt)
	const length = 6*2000 + 5
	s := Sampler{WindowSize: 100, Interval: 5, Warmup: 20}
	budgets := []int64{length - 1}
	for _, c := range []int64{256, sim.TraceChunkSize} {
		for k := int64(1); k <= 2; k++ {
			budgets = append(budgets, k*c-1, k*c, k*c+1)
		}
	}
	for _, b := range budgets {
		for name, err := range entryPoints(prog, s, b) {
			if !errors.Is(err, ErrBudget) {
				t.Errorf("%s at budget %d of %d: error %v, want ErrBudget", name, b, length, err)
			}
		}
	}
	for name, err := range entryPoints(prog, s, length) {
		if err != nil {
			t.Errorf("%s at budget == run length: %v", name, err)
		}
	}
}

// TestFaultIsTheProducersFault: a store fault in the middle of a run comes
// back from every entry point as the *sim.ErrFault the reference engine
// reports, untranslated.
func TestFaultIsTheProducersFault(t *testing.T) {
	prog := countedLoop(2000, isa.Instr{Op: isa.OpStore, Rs1: isa.RegZero, Rs2: 11, Imm: 16})
	_, _, refErr := sim.SimulateEngine(prog, sim.DefaultConfig(), 1<<30, sim.EngineFeed)
	var want *sim.ErrFault
	if !errors.As(refErr, &want) || want.PC != 9 || want.Budget {
		t.Fatalf("reference engine: %v, want a store fault at pc 9", refErr)
	}
	for name, err := range entryPoints(prog, Sampler{WindowSize: 100, Interval: 5, Warmup: 20}, 1<<30) {
		var got *sim.ErrFault
		if !errors.As(err, &got) || *got != *want {
			t.Errorf("%s: error %v, want %v", name, err, fmt.Sprint(want))
		}
	}
}
