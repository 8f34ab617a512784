package compiler

import (
	"errors"
	"testing"

	"repro/internal/lang"
	"repro/internal/sim"
)

// runProgram compiles src with opts and executes it, returning main's result.
func runProgram(t *testing.T, src string, opts Options) int64 {
	t.Helper()
	prog, _, err := CompileSource(src, opts)
	if err != nil {
		t.Fatalf("compile (%v): %v", opts, err)
	}
	exe := sim.NewExecutor(prog)
	_, rv, err := exe.Run(50_000_000)
	if err != nil {
		t.Fatalf("run (%v): %v", opts, err)
	}
	return rv
}

// optionMatrix is the set of configurations every semantics test runs under.
func optionMatrix() map[string]Options {
	m := map[string]Options{
		"O0": O0(),
		"O2": O2(),
		"O3": O3(),
	}
	single := map[string]func(*Options){
		"inline":   func(o *Options) { o.InlineFunctions = true },
		"unroll":   func(o *Options) { o.UnrollLoops = true },
		"sched":    func(o *Options) { o.ScheduleInsns = true },
		"loopopt":  func(o *Options) { o.LoopOptimize = true },
		"gcse":     func(o *Options) { o.GCSE = true },
		"strength": func(o *Options) { o.StrengthReduce = true },
		"omitfp":   func(o *Options) { o.OmitFramePointer = true },
		"reorder":  func(o *Options) { o.ReorderBlocks = true },
		"prefetch": func(o *Options) { o.PrefetchLoopArray = true },
	}
	for name, set := range single {
		o := O0()
		set(&o)
		m[name] = o
	}
	all := O3()
	all.UnrollLoops = true
	m["everything"] = all

	tight := all
	tight.MaxUnrollTimes = 12
	tight.MaxUnrolledInsns = 300
	tight.MaxInlineInsnsAuto = 150
	tight.InlineUnitGrowth = 75
	m["aggressive-heuristics"] = tight

	narrow := all
	narrow.TargetIssueWidth = 2
	m["narrow-target"] = narrow
	return m
}

// assertSameResult compiles src under the whole option matrix and checks all
// variants compute `want`.
func assertSameResult(t *testing.T, src string, want int64) {
	t.Helper()
	for name, opts := range optionMatrix() {
		got := runProgram(t, src, opts)
		if got != want {
			t.Errorf("%s: result = %d, want %d", name, got, want)
		}
	}
}

func TestSemanticsArithmetic(t *testing.T) {
	assertSameResult(t, `
int main() {
	int a = 7;
	int b = -3;
	int c = a * b + 100 / a - 20 % 6;
	int d = (a << 2) ^ (b & 15) | (a >> 1);
	return c * 1000 + d;
}`, func() int64 {
		a, b := int64(7), int64(-3)
		c := a*b + 100/a - 20%6
		d := a<<2 ^ b&15 | a>>1
		return c*1000 + d
	}())
}

func TestSemanticsLoopSum(t *testing.T) {
	assertSameResult(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i = i + 1) {
		sum = sum + i * i;
	}
	return sum;
}`, 328350)
}

func TestSemanticsArrays(t *testing.T) {
	assertSameResult(t, `
int a[256];
int main() {
	for (int i = 0; i < 256; i = i + 1) {
		a[i] = i * 3;
	}
	int sum = 0;
	for (int j = 0; j < 256; j = j + 2) {
		sum = sum + a[j];
	}
	return sum;
}`, func() int64 {
		var a [256]int64
		for i := int64(0); i < 256; i++ {
			a[i] = i * 3
		}
		s := int64(0)
		for j := 0; j < 256; j += 2 {
			s += a[j]
		}
		return s
	}())
}

func TestSemanticsCallsAndRecursion(t *testing.T) {
	assertSameResult(t, `
int fib(int n) {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}
int add3(int a, int b, int c) {
	return a + b + c;
}
int main() {
	return fib(15) * 10 + add3(1, 2, 3);
}`, 610*10+6)
}

func TestSemanticsGlobalsAndScalars(t *testing.T) {
	assertSameResult(t, `
int counter = 5;
int limit = -2;
int bump(int by) {
	counter = counter + by;
	return counter;
}
int main() {
	bump(3);
	bump(4);
	return counter * 100 + limit;
}`, 12*100-2)
}

func TestSemanticsShortCircuit(t *testing.T) {
	assertSameResult(t, `
int calls = 0;
int sideEffect(int v) {
	calls = calls + 1;
	return v;
}
int main() {
	int a = 0;
	if (sideEffect(0) && sideEffect(1)) {
		a = 100;
	}
	if (sideEffect(1) || sideEffect(0)) {
		a = a + 10;
	}
	return a * 10 + calls;
}`, 10*10+2)
}

func TestSemanticsWhileBreakContinue(t *testing.T) {
	assertSameResult(t, `
int main() {
	int i = 0;
	int sum = 0;
	while (i < 50) {
		i = i + 1;
		if (i % 3 == 0) {
			continue;
		}
		if (i > 40) {
			break;
		}
		sum = sum + i;
	}
	return sum * 100 + i;
}`, func() int64 {
		i, sum := int64(0), int64(0)
		for i < 50 {
			i++
			if i%3 == 0 {
				continue
			}
			if i > 40 {
				break
			}
			sum += i
		}
		return sum*100 + i
	}())
}

func TestSemanticsNestedLoops(t *testing.T) {
	assertSameResult(t, `
int m[64];
int main() {
	for (int i = 0; i < 8; i = i + 1) {
		for (int j = 0; j < 8; j = j + 1) {
			m[i * 8 + j] = i * j;
		}
	}
	int trace = 0;
	for (int k = 0; k < 8; k = k + 1) {
		trace = trace + m[k * 8 + k];
	}
	return trace;
}`, 140)
}

func TestSemanticsManyLocalsSpill(t *testing.T) {
	// More live values than allocatable registers forces spilling.
	assertSameResult(t, `
int main() {
	int a0 = 1; int a1 = 2; int a2 = 3; int a3 = 4; int a4 = 5;
	int a5 = 6; int a6 = 7; int a7 = 8; int a8 = 9; int a9 = 10;
	int b0 = 11; int b1 = 12; int b2 = 13; int b3 = 14; int b4 = 15;
	int b5 = 16; int b6 = 17; int b7 = 18; int b8 = 19; int b9 = 20;
	int c0 = 21; int c1 = 22; int c2 = 23; int c3 = 24; int c4 = 25;
	int sum = 0;
	for (int i = 0; i < 10; i = i + 1) {
		sum = sum + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9;
		sum = sum + b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8 + b9;
		sum = sum + c0 + c1 + c2 + c3 + c4;
		a0 = a0 + 1; b0 = b0 + 2; c0 = c0 + 3;
	}
	return sum;
}`, func() int64 {
		vals := make([]int64, 25)
		for i := range vals {
			vals[i] = int64(i + 1)
		}
		sum := int64(0)
		for i := 0; i < 10; i++ {
			for _, v := range vals {
				sum += v
			}
			vals[0]++
			vals[10] += 2
			vals[20] += 3
		}
		return sum
	}())
}

func TestSemanticsDivByZeroConvention(t *testing.T) {
	assertSameResult(t, `
int main() {
	int z = 0;
	return 7 / z + 9 % z + 5;
}`, 5)
}

func TestSemanticsUnrollableLoop(t *testing.T) {
	// Classic unroll shape with an accumulator and array stream.
	assertSameResult(t, `
int data[512];
int main() {
	for (int i = 0; i < 512; i = i + 1) {
		data[i] = i ^ (i << 1);
	}
	int acc = 0;
	for (int i = 0; i < 509; i = i + 1) {
		acc = acc + data[i] * 3 - data[i + 1];
	}
	return acc;
}`, func() int64 {
		var data [512]int64
		for i := int64(0); i < 512; i++ {
			data[i] = i ^ (i << 1)
		}
		acc := int64(0)
		for i := 0; i < 509; i++ {
			acc += data[i]*3 - data[i+1]
		}
		return acc
	}())
}

func TestSemanticsLoopCarriedDependence(t *testing.T) {
	assertSameResult(t, `
int main() {
	int x = 1;
	for (int i = 0; i < 40; i = i + 1) {
		x = x * 3 % 1000003;
	}
	return x;
}`, func() int64 {
		x := int64(1)
		for i := 0; i < 40; i++ {
			x = x * 3 % 1000003
		}
		return x
	}())
}

func TestStatsChangeWithFlags(t *testing.T) {
	src := `
int data[512];
int work(int n) {
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		acc = acc + data[i] * 5;
	}
	return acc;
}
int main() {
	for (int i = 0; i < 512; i = i + 1) {
		data[i] = i;
	}
	return work(512) + work(100);
}`
	parse := func() *lang.Program { return lang.MustParse(src) }

	_, s0, err := Compile(parse(), O0())
	if err != nil {
		t.Fatal(err)
	}
	unroll := O2()
	unroll.UnrollLoops = true
	_, s1, err := Compile(parse(), unroll)
	if err != nil {
		t.Fatal(err)
	}
	if s1.IRInstrs <= s0.IRInstrs/2 {
		// Unrolled code should be substantially larger than O0 would
		// suggest after optimization; this is a sanity check that the
		// unroller actually fired (IR grows relative to the optimized
		// non-unrolled form below).
	}
	o2 := O2()
	_, s2, err := Compile(parse(), o2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.IRInstrs <= s2.IRInstrs {
		t.Errorf("unrolling should grow code: unroll=%d O2=%d", s1.IRInstrs, s2.IRInstrs)
	}

	inline := O2()
	inline.InlineFunctions = true
	_, s3, err := Compile(parse(), inline)
	if err != nil {
		t.Fatal(err)
	}
	if s3.IRInstrs <= s2.IRInstrs {
		t.Errorf("inlining work() twice should grow code: inline=%d O2=%d", s3.IRInstrs, s2.IRInstrs)
	}
}

func TestO2FasterThanO0(t *testing.T) {
	src := `
int data[2048];
int main() {
	for (int i = 0; i < 2048; i = i + 1) {
		data[i] = i * 7;
	}
	int acc = 0;
	for (int r = 0; r < 20; r = r + 1) {
		for (int i = 0; i < 2048; i = i + 1) {
			acc = acc + data[i] * 3;
		}
	}
	return acc;
}`
	cfg := sim.DefaultConfig()
	cycles := func(opts Options) int64 {
		prog, _, err := CompileSource(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Simulate(prog, cfg, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	c0 := cycles(O0())
	c2 := cycles(O2())
	if c2 >= c0 {
		t.Errorf("O2 (%d cycles) should beat O0 (%d cycles)", c2, c0)
	}
	t.Logf("O0=%d O2=%d speedup=%.2fx", c0, c2, float64(c0)/float64(c2))
}

// TestHeuristicCaps: every numeric heuristic at its hard cap, with every
// flag on, compiles to a program of the same result, and one above the cap
// or below zero is a *HeuristicError naming it. The caps bound compile work
// on points from outside the process (a worker's lease): unroll settings
// far above them exhaust the compiler's memory.
func TestHeuristicCaps(t *testing.T) {
	const src = `
int data[64];
int sq(int x) { return x * x; }
int main() {
	int acc = 0;
	for (int i = 0; i < 64; i = i + 1) {
		data[i] = sq(i);
	}
	for (int i = 0; i < 63; i = i + 1) {
		acc = acc + data[i] - data[i + 1] / 3;
	}
	return acc;
}`
	all := O3()
	all.UnrollLoops = true
	want := runProgram(t, src, all)
	for _, h := range []struct {
		name  string
		field func(*Options) *int
		cap   int
	}{
		{"max-inline-insns-auto", func(o *Options) *int { return &o.MaxInlineInsnsAuto }, maxInlineInsnsAuto},
		{"inline-unit-growth", func(o *Options) *int { return &o.InlineUnitGrowth }, maxInlineUnitGrowth},
		{"inline-call-cost", func(o *Options) *int { return &o.InlineCallCost }, maxInlineCallCost},
		{"max-unroll-times", func(o *Options) *int { return &o.MaxUnrollTimes }, maxUnrollTimes},
		{"max-unrolled-insns", func(o *Options) *int { return &o.MaxUnrolledInsns }, maxUnrolledInsns},
	} {
		at := all
		*h.field(&at) = h.cap
		if got := runProgram(t, src, at); got != want {
			t.Errorf("%s at its cap %d: main returned %d, want %d", h.name, h.cap, got, want)
		}
		for _, v := range []int{h.cap + 1, -1} {
			o := all
			*h.field(&o) = v
			_, _, err := CompileSource(src, o)
			var he *HeuristicError
			if !errors.As(err, &he) || he.Name != h.name || he.Value != v {
				t.Errorf("%s = %d: err = %v, want a *HeuristicError naming it", h.name, v, err)
			}
		}
	}
}
