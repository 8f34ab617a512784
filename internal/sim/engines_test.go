package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/isa"
)

// nops returns k no-ops, used to pad a program to an exact dynamic length.
func nops(k int64) []isa.Instr { return make([]isa.Instr, k) }

// loopBody returns a 9-instruction counted loop laid out at instruction
// index base. It executes 6n+4 instructions — a store, a load and a branch
// per iteration, so chunk boundaries cut through memory and control entries
// alike — and then falls through to base+9.
func loopBody(base int32, n int64) []isa.Instr {
	return []isa.Instr{
		{Op: isa.OpLui, Rd: 11, Imm: 0},
		{Op: isa.OpLui, Rd: 13, Imm: n},
		{Op: isa.OpLui, Rd: 15, Imm: isa.GlobalBase},
		{Op: isa.OpBge, Rs1: 11, Rs2: 13, Target: base + 9},
		{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: isa.RegRV, Rs2: 11},
		{Op: isa.OpStore, Rs1: 15, Rs2: isa.RegRV},
		{Op: isa.OpLoad, Rd: 14, Rs1: 15},
		{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: 1},
		{Op: isa.OpJump, Target: base + 3},
	}
}

// runs returns a program that executes exactly `before` instructions
// (before >= 4) of padding and loop, preceded by head and followed by tail.
func runs(head []isa.Instr, before int64, tail ...isa.Instr) *isa.Program {
	n, pad := (before-4)/6, (before-4)%6
	ins := append([]isa.Instr{}, head...)
	ins = append(ins, nops(pad)...)
	ins = append(ins, loopBody(int32(len(ins)), n)...)
	return &isa.Program{Instrs: append(ins, tail...), DataSize: 8}
}

var halt = isa.Instr{Op: isa.OpHalt}

// engineConfigs returns k distinct valid configurations.
func engineConfigs(k int) []Config {
	narrow := Constrained()
	narrow.IssueWidth = 1
	base := []Config{DefaultConfig(), Aggressive(), Constrained(), narrow}
	cfgs := make([]Config, k)
	for i := range cfgs {
		cfgs[i] = base[i%len(base)]
		cfgs[i].MemLat += i
	}
	return cfgs
}

type engineOutcome struct {
	stats Stats // zero on error
	fault ErrFault
	ok    bool
	pc    int32 // Executor.PC after the run
	count int64 // Executor.Count after the run
}

func runOutcome(t *testing.T, prog *isa.Program, cfg Config, budget int64, engine string) engineOutcome {
	t.Helper()
	exe, cpu := NewExecutor(prog), NewCPU(cfg)
	var es EngineStats
	err := runEngine(exe, cpu, budget, engine, &es)
	o := engineOutcome{pc: exe.PC, count: exe.Count}
	if err == nil {
		o.ok = true
		o.stats = cpu.Stats()
		o.stats.ExitValue = exe.Regs[isa.RegRV]
		return o
	}
	var f *ErrFault
	if !errors.As(err, &f) {
		t.Fatalf("%s: error %v is not an *ErrFault", engine, err)
	}
	o.fault = *f
	return o
}

// TestEnginesAgree holds every engine and SimulateMany (a round of one, a
// broadcast round, and 16 + a last round of one) to the feed reference on
// faults and on chunk and budget boundaries: the same error type, faulting
// PC and Budget flag and the same Executor.PC/Count, or on success the same
// Stats and ExitValue.
func TestEnginesAgree(t *testing.T) {
	const big = 1 << 40
	lowLoad := []isa.Instr{{Op: isa.OpLui, Rd: 11, Imm: 8}, {Op: isa.OpLoad, Rd: 12, Rs1: 11}}
	type tcase struct {
		name   string
		prog   *isa.Program
		budget int64
		// wantErr false means the run halts; otherwise wantPC (anyPC: only
		// parity is checked) and wantBudget describe the fault.
		wantErr    bool
		wantPC     int32
		wantBudget bool
		wantSlow   bool // the bb engine must leave for its slow path
	}
	const anyPC = -1 << 31
	cases := []tcase{
		{name: "halts", prog: runs(nil, 100, halt), budget: big},
		{name: "low-address load", prog: runs(nil, 10, lowLoad...), budget: big, wantErr: true, wantPC: 10},
		{name: "low-address store", prog: runs(nil, 10, isa.Instr{Op: isa.OpStore, Rs1: isa.RegZero, Rs2: 11, Imm: 16}),
			budget: big, wantErr: true, wantPC: 9},
		{name: "unknown opcode", prog: runs(nil, 10, isa.Instr{Op: isa.OpHalt + 7}), budget: big, wantErr: true, wantPC: 9},
		{name: "unknown opcode at entry", prog: &isa.Program{Instrs: []isa.Instr{{Op: isa.OpHalt + 1}}}, budget: big, wantErr: true, wantPC: 0},
		{name: "pc falls off the end", prog: runs(nil, 10), budget: big, wantErr: true, wantPC: 9},
		{name: "ret to negative pc", prog: runs(nil, 10, isa.Instr{Op: isa.OpLui, Rd: isa.RegRA, Imm: -5}, isa.Instr{Op: isa.OpRet}),
			budget: big, wantErr: true, wantPC: -5},
		// A hand-written RegRA lands the return in the middle of a block:
		// the bb engine leaves for its slow path (runFused) and finishes
		// the run there, across several fused chunks.
		{name: "ret to non-leader pc", prog: runs([]isa.Instr{
			{Op: isa.OpLui, Rd: isa.RegRA, Imm: 3},
			{Op: isa.OpRet},
			{Op: isa.OpNop},
			{Op: isa.OpAddi, Rd: isa.RegRV, Rs1: isa.RegRV, Imm: 7},
		}, 3*fusedChunkSize, halt), budget: big, wantSlow: true},
		{name: "ret to non-leader pc then fault", prog: runs([]isa.Instr{
			{Op: isa.OpLui, Rd: isa.RegRA, Imm: 3},
			{Op: isa.OpRet},
			{Op: isa.OpNop},
			{Op: isa.OpAddi, Rd: isa.RegRV, Rs1: isa.RegRV, Imm: 7},
		}, 10, lowLoad...), budget: big, wantErr: true, wantPC: 14, wantSlow: true},
	}
	long := runs(nil, 3*TraceChunkSize, halt)
	for _, size := range []int64{fusedChunkSize, TraceChunkSize} {
		for _, k := range []int64{1, 2} {
			for _, d := range []int64{-1, 0, 1} {
				n := k*size + d
				cases = append(cases,
					tcase{name: fmt.Sprintf("budget %d of a longer run", n), prog: long, budget: n, wantErr: true, wantPC: anyPC, wantBudget: true},
					// n instructions then halt: the halt is entry n+1.
					tcase{name: fmt.Sprintf("halts as instruction %d", n+1), prog: runs(nil, n, halt), budget: big},
					tcase{name: fmt.Sprintf("faults as instruction %d", n+1), prog: runs(nil, n, lowLoad[1]), budget: big, wantErr: true, wantPC: anyPC},
				)
			}
			n := k * size
			cases = append(cases,
				tcase{name: fmt.Sprintf("budget %d equals the run", n), prog: runs(nil, n-1, halt), budget: n},
				tcase{name: fmt.Sprintf("budget %d stops at the halt", n-1), prog: runs(nil, n-1, halt), budget: n - 1, wantErr: true, wantPC: anyPC, wantBudget: true},
			)
		}
	}

	cfgs := engineConfigs(17)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := make([]engineOutcome, len(cfgs))
			for i, cfg := range cfgs {
				ref[i] = runOutcome(t, tc.prog, cfg, tc.budget, EngineFeed)
			}
			r0 := ref[0]
			if r0.ok == tc.wantErr {
				t.Fatalf("feed: ok=%v, want error=%v (%+v)", r0.ok, tc.wantErr, r0.fault)
			}
			if tc.wantErr {
				if tc.wantPC != anyPC && r0.fault.PC != tc.wantPC {
					t.Errorf("feed: fault at pc %d, want %d", r0.fault.PC, tc.wantPC)
				}
				if r0.fault.Budget != tc.wantBudget {
					t.Errorf("feed: Budget=%v, want %v (%s)", r0.fault.Budget, tc.wantBudget, r0.fault.Msg)
				}
				if r0.pc != r0.fault.PC {
					t.Errorf("feed: Executor.PC %d after a fault at pc %d", r0.pc, r0.fault.PC)
				}
				if tc.wantBudget && r0.count != tc.budget {
					t.Errorf("feed: Executor.Count %d after budget %d", r0.count, tc.budget)
				}
			}
			for _, eng := range Engines() {
				for i, cfg := range cfgs[:4] {
					if got := runOutcome(t, tc.prog, cfg, tc.budget, eng); got != ref[i] {
						t.Errorf("%s cfg %d:\n got  %+v\n feed %+v", eng, i, got, ref[i])
					}
				}
			}
			if tc.wantSlow {
				if _, es, _ := SimulateEngine(tc.prog, cfgs[0], tc.budget, EngineBB); es.SlowPathEntries == 0 {
					t.Errorf("bb never entered its slow path: %+v", es)
				}
			}
			for _, k := range []int{1, 2, 17} {
				got, err := SimulateMany(tc.prog, cfgs[:k], tc.budget)
				if r0.ok {
					if err != nil {
						t.Fatalf("SimulateMany(%d): %v", k, err)
					}
					for i := range got {
						if got[i] != ref[i].stats {
							t.Errorf("SimulateMany(%d) cfg %d:\n got  %+v\n feed %+v", k, i, got[i], ref[i].stats)
						}
					}
					continue
				}
				var f *ErrFault
				if !errors.As(err, &f) || *f != r0.fault {
					t.Errorf("SimulateMany(%d): error %v, want %v", k, err, &r0.fault)
				}
				if got != nil {
					t.Errorf("SimulateMany(%d): results %v alongside an error", k, got)
				}
			}
		})
	}
}

// TestFaultDeliversExecutedPrefix states what a timing consumer has seen
// when the producer faults, for both forms of Trace: exactly the
// Executor.Count instructions that executed before the faulting one — whole
// chunks and then a short one — and never the faulting instruction itself.
// (Callers still discard the consumers' Stats on error.)
func TestFaultDeliversExecutedPrefix(t *testing.T) {
	const before = TraceChunkSize + fusedChunkSize + 17
	prog := runs(nil, before, isa.Instr{Op: isa.OpStore, Rs1: isa.RegZero, Rs2: 11, Imm: 16})
	faultPC := int32(len(prog.Instrs) - 1)
	check := func(name string, exe *Executor, err error, seen int64) {
		t.Helper()
		var f *ErrFault
		if !errors.As(err, &f) || f.PC != faultPC || f.Budget {
			t.Fatalf("%s: error %v, want a store fault at pc %d", name, err, faultPC)
		}
		if exe.PC != faultPC || exe.Count != before {
			t.Errorf("%s: executor at pc %d count %d, want pc %d count %d", name, exe.PC, exe.Count, faultPC, before)
		}
		if seen != before {
			t.Errorf("%s: consumer saw %d instructions, want the %d before the fault", name, seen, before)
		}
	}

	exe, cpu := NewExecutor(prog), NewCPU(DefaultConfig())
	err := runFused(exe, cpu, 1<<40)
	check("runFused", exe, err, cpu.Stats().Instructions)

	exe = NewExecutor(prog)
	var seen [3]int64
	var consumers []func([]TraceEntry)
	for k := range seen {
		consumers = append(consumers, func(ents []TraceEntry) {
			for _, e := range ents {
				if e.PC == faultPC {
					t.Errorf("consumer %d was sent the faulting instruction", k)
				}
			}
			seen[k] += int64(len(ents))
		})
	}
	err = exe.Trace(1<<40, consumers...)
	for k := range seen {
		check(fmt.Sprintf("Trace consumer %d", k), exe, err, seen[k])
	}
}

// TestFillChunkMatchesStep pins the producer to the reference interpreter
// record by record: every TraceEntry field, NextPC included, is what Step
// reports, across chunk boundaries and through the final halt.
func TestFillChunkMatchesStep(t *testing.T) {
	prog := runs(nil, 2*fusedChunkSize+5, halt)
	ref, exe := NewExecutor(prog), NewExecutor(prog)
	var buf [fusedChunkSize]TraceEntry
	for !exe.Halted {
		n, err := exe.fillChunk(buf[:], 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range buf[:n] {
			want, ok, err := ref.Step()
			if !ok || err != nil || got != want {
				t.Fatalf("instruction %d: fillChunk %+v, Step %+v (ok=%v err=%v)", ref.Count, got, want, ok, err)
			}
		}
	}
	if !ref.Halted || exe.Count != ref.Count || exe.PC != ref.PC || exe.Regs != ref.Regs {
		t.Errorf("final state differs: fillChunk pc %d count %d, Step pc %d count %d halted=%v", exe.PC, exe.Count, ref.PC, ref.Count, ref.Halted)
	}
}
