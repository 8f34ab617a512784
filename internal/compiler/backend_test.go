package compiler

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/sim"
)

func TestLinkStartStubAndSymbols(t *testing.T) {
	prog, _, err := CompileSource(`
int helper(int x) { return x + 1; }
int main() { return helper(41); }`, O2())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry != 0 {
		t.Fatal("entry should be the start stub")
	}
	if prog.Instrs[0].Op != isa.OpCall || prog.Instrs[1].Op != isa.OpHalt {
		t.Fatal("start stub should be call main; halt")
	}
	mainEntry, ok := prog.Symbols["main"]
	if !ok || prog.Instrs[0].Target != mainEntry {
		t.Fatal("start stub must call main")
	}
	if _, ok := prog.Symbols["helper"]; !ok {
		t.Fatal("helper symbol missing")
	}
	exe := sim.NewExecutor(prog)
	if _, rv, err := exe.Run(10_000); err != nil || rv != 42 {
		t.Fatalf("rv=%d err=%v", rv, err)
	}
}

func TestLinkCallToUnknownFunction(t *testing.T) {
	f := ir.NewFunc("main", 0)
	v := f.NewValue()
	f.Entry.Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: v, Sym: "missing"},
		{Op: ir.OpRet, X: v},
	}
	p := &ir.Program{Funcs: []*ir.Func{f}}
	alloc := Allocate(f, true)
	mf, err := GenFunc(f, alloc, true, map[string]int64{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Link(p, []*MachineFunc{mf}, O2()); err == nil {
		t.Fatal("expected unknown-function link error")
	}
}

func TestGenFuncRejectsTooManyArgs(t *testing.T) {
	f := ir.NewFunc("main", 0)
	args := make([]ir.Value, isa.NumArgRegs+1)
	for i := range args {
		args[i] = f.NewValue()
		f.Entry.Instrs = append(f.Entry.Instrs, ir.Instr{Op: ir.OpConst, Dst: args[i], Imm: 1})
	}
	dst := f.NewValue()
	f.Entry.Instrs = append(f.Entry.Instrs,
		ir.Instr{Op: ir.OpCall, Dst: dst, Sym: "f", Args: args},
		ir.Instr{Op: ir.OpRet, X: dst},
	)
	alloc := Allocate(f, true)
	if _, err := GenFunc(f, alloc, true, map[string]int64{}); err == nil {
		t.Fatal("expected too-many-args error")
	}
}

func TestLayoutKeepsEntryFirst(t *testing.T) {
	for _, reorder := range []bool{false, true} {
		prog, _, err := CompileSource(`
int main() {
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}`, Options{ReorderBlocks: reorder})
		if err != nil {
			t.Fatal(err)
		}
		exe := sim.NewExecutor(prog)
		if _, rv, err := exe.Run(10_000); err != nil || rv != 15 {
			t.Fatalf("reorder=%v: rv=%d err=%v", reorder, rv, err)
		}
	}
}

func TestReorderBlocksReducesTakenBranches(t *testing.T) {
	// A loop whose hot path goes through the else-branch: layout should
	// make the hot path the fall-through.
	src := `
int a[4096];
int main() {
	int s = 0;
	for (int i = 0; i < 4096; i = i + 1) {
		if (i % 64 == 0) {
			s = s - 1;
		} else {
			s = s + a[i];
		}
	}
	return s;
}`
	taken := func(reorder bool) int64 {
		opts := O2()
		opts.ReorderBlocks = reorder
		prog, _, err := CompileSource(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Simulate(prog, sim.DefaultConfig(), 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	with, without := taken(true), taken(false)
	// Reordering should never be catastrophically worse and usually wins.
	if with > without*105/100 {
		t.Fatalf("reordered layout much slower: %d vs %d", with, without)
	}
	t.Logf("cycles reorder=%d baseline=%d", with, without)
}

func TestFramePointerCodegenDiffers(t *testing.T) {
	src := `
int f(int a, int b) { return a * b + a - b; }
int main() { return f(6, 7); }`
	withFP := O2()
	withFP.OmitFramePointer = false
	p1, s1, err := CompileSource(src, withFP)
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, err := CompileSource(src, O2())
	if err != nil {
		t.Fatal(err)
	}
	if s1.MachineInstrs <= s2.MachineInstrs {
		t.Fatalf("keeping the frame pointer should cost instructions: %d vs %d",
			s1.MachineInstrs, s2.MachineInstrs)
	}
	for _, p := range []*isa.Program{p1, p2} {
		exe := sim.NewExecutor(p)
		if _, rv, err := exe.Run(10_000); err != nil || rv != 41 {
			t.Fatalf("rv=%d err=%v", rv, err)
		}
	}
}

func TestSpillCodeUsesScratchRegisters(t *testing.T) {
	// Force spills and make sure the executable never writes reserved
	// registers outside scratch/ABI conventions incorrectly — validated
	// behaviorally by running a deep-pressure function.
	var sb strings.Builder
	sb.WriteString("int main() {\n")
	n := 30
	for i := 0; i < n; i++ {
		sb.WriteString(" int v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" = ")
		sb.WriteString(string(rune('1'+i%9)) + ";\n")
	}
	sb.WriteString(" int s = 0;\n for (int r = 0; r < 3; r = r + 1) {\n  s = s")
	for i := 0; i < n; i++ {
		sb.WriteString(" + v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
	}
	sb.WriteString(";\n }\n return s;\n}\n")

	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(1 + i%9)
	}
	want *= 3

	for _, name := range []string{"O0", "O2"} {
		opts := O0()
		if name == "O2" {
			opts = O2()
		}
		prog, stats, err := CompileSource(sb.String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if name == "O0" && stats.SpillSlots == 0 {
			t.Error("expected spills under pressure at O0")
		}
		exe := sim.NewExecutor(prog)
		if _, rv, err := exe.Run(100_000); err != nil || rv != want {
			t.Fatalf("%s: rv=%d want=%d err=%v", name, rv, want, err)
		}
	}
}

func TestOptimizeIRMatchesCompilePipeline(t *testing.T) {
	src := `
int a[64];
int main() {
	int s = 0;
	for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * 3; }
	return s;
}`
	p, err := Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	opts := O3()
	opts.UnrollLoops = true
	OptimizeIR(p, opts)
	if err := ir.VerifyProgram(p); err != nil {
		t.Fatal(err)
	}
	if p.InstrCount() == 0 {
		t.Fatal("empty after optimization")
	}
	// Compile builds its binary from this same IR.
	_, stats, err := Compile(lang.MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IRInstrs != p.InstrCount() {
		t.Fatalf("Compile optimized to %d IR instructions, OptimizeIR to %d", stats.IRInstrs, p.InstrCount())
	}
}
