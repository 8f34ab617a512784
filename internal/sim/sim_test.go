package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := newMemory(0)
	m.Store(0x10000, 42)
	m.Store(0x10008, -7)
	if m.Load(0x10000) != 42 || m.Load(0x10008) != -7 {
		t.Fatal("load after store")
	}
	if m.Load(0x99999000) != 0 {
		t.Fatal("uninitialized memory should read 0")
	}
}

func TestPropertyMemory(t *testing.T) {
	f := func(addrs []uint32, vals []int64) bool {
		m := newMemory(0)
		ref := map[uint64]int64{}
		for i, a := range addrs {
			if i >= len(vals) {
				break
			}
			addr := uint64(a) &^ 7
			m.Store(addr, vals[i])
			ref[addr] = vals[i]
		}
		for a, v := range ref {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// handProgram builds a tiny program: sum = 0; for i in 0..n-1: sum += i;
// then halt with sum in RV.
func handProgram(n int64) *isa.Program {
	// r11 = i, r12 = sum, r13 = n
	return &isa.Program{
		Entry: 0,
		Instrs: []isa.Instr{
			{Op: isa.OpCall, Target: 2},
			{Op: isa.OpHalt},
			// main:
			{Op: isa.OpLui, Rd: 11, Imm: 0},
			{Op: isa.OpLui, Rd: 12, Imm: 0},
			{Op: isa.OpLui, Rd: 13, Imm: n},
			// loop: if i >= n goto done
			{Op: isa.OpBge, Rs1: 11, Rs2: 13, Target: 9},
			{Op: isa.OpAdd, Rd: 12, Rs1: 12, Rs2: 11},
			{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: 1},
			{Op: isa.OpJump, Target: 5},
			// done:
			{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: 12, Rs2: isa.RegZero},
			{Op: isa.OpRet},
		},
		Symbols: map[string]int32{"main": 2},
	}
}

func TestExecutorHandProgram(t *testing.T) {
	exe := NewExecutor(handProgram(10))
	n, rv, err := exe.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if rv != 45 {
		t.Fatalf("result = %d, want 45", rv)
	}
	if n == 0 || !exe.Halted {
		t.Fatal("executor state wrong")
	}
}

func TestExecutorFaults(t *testing.T) {
	bad := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpLui, Rd: 11, Imm: 8},
		{Op: isa.OpLoad, Rd: 12, Rs1: 11}, // load from address 8: fault
	}}
	exe := NewExecutor(bad)
	if _, _, err := exe.Run(10); err == nil {
		t.Fatal("expected fault on low-address load")
	}
	// Instruction budget.
	loop := &isa.Program{Instrs: []isa.Instr{{Op: isa.OpJump, Target: 0}}}
	if _, _, err := NewExecutor(loop).Run(100); err == nil {
		t.Fatal("expected budget fault")
	}
}

func TestExecutorZeroRegisterHardwired(t *testing.T) {
	p := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpLui, Rd: isa.RegZero, Imm: 99},
		{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: isa.RegZero, Rs2: isa.RegZero},
		{Op: isa.OpHalt},
	}}
	exe := NewExecutor(p)
	if _, rv, err := exe.Run(10); err != nil || rv != 0 {
		t.Fatalf("r0 should stay 0, got %d (err %v)", rv, err)
	}
}

func TestExecutorInitData(t *testing.T) {
	p := &isa.Program{
		Instrs: []isa.Instr{
			{Op: isa.OpLui, Rd: 11, Imm: isa.GlobalBase},
			{Op: isa.OpLoad, Rd: isa.RegRV, Rs1: 11},
			{Op: isa.OpHalt},
		},
		Init: []isa.DataInit{{Addr: isa.GlobalBase, Val: 1234}},
	}
	exe := NewExecutor(p)
	if _, rv, err := exe.Run(10); err != nil || rv != 1234 {
		t.Fatalf("init data: got %d, err %v", rv, err)
	}
}

func TestCacheDirectMappedConflicts(t *testing.T) {
	c := NewCache(1, 1) // 1KB direct-mapped: 16 lines
	if c.Access(0) {
		t.Fatal("cold miss expected")
	}
	if !c.Access(0) || !c.Access(32) {
		t.Fatal("same line should hit")
	}
	// 0 and 1024 conflict in a 1KB direct-mapped cache.
	c.Access(1024)
	if c.Access(0) {
		t.Fatal("conflict should have evicted line 0")
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(1, 2) // 8 sets x 2 ways
	setStride := uint64(8 * 64)
	c.Access(0 * setStride)
	c.Access(1 * setStride) // same set, second way
	c.Access(0 * setStride) // touch 0: 1 becomes LRU
	c.Access(2 * setStride) // evicts 1
	if !c.Access(0 * setStride) {
		t.Fatal("0 should still be cached")
	}
	if c.Access(1 * setStride) {
		t.Fatal("1 should have been evicted (LRU)")
	}
}

func TestCacheConflictsAllMiss(t *testing.T) {
	c := NewCache(4, 1)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i) * 64 * 64) // all conflicting
	}
	if c.Accesses != 10 || c.Misses != 10 {
		t.Fatalf("%d misses of %d accesses, want 10 of 10", c.Misses, c.Accesses)
	}
}

func TestCacheSizeKBRounding(t *testing.T) {
	cases := []struct {
		sizeKB, assoc int
		wantKB        int
	}{
		{32, 1, 32}, // power-of-two sets: exact
		{32, 4, 32}, // still power-of-two sets
		{96, 4, 64}, // 384 sets rounds down to 256: effective 64 KB
		{48, 1, 32}, // 768 sets -> 512
		{1024, 8, 1024},
		{0, 1, 0}, // degenerate: clamped to 1 set of 1 way = 64 B
	}
	for _, tc := range cases {
		c := NewCache(tc.sizeKB, tc.assoc)
		if got := c.sets * c.assoc * LineBytes / 1024; got != tc.wantKB {
			t.Errorf("NewCache(%d KB, %d-way) models %d KB, want %d",
				tc.sizeKB, tc.assoc, got, tc.wantKB)
		}
	}
}

func TestBPredLearnsLoop(t *testing.T) {
	p := NewBPred(512)
	// Strongly biased branch: taken 63 of 64 times, repeated.
	for rounds := 0; rounds < 50; rounds++ {
		for i := 0; i < 63; i++ {
			p.Update(100, true)
		}
		p.Update(100, false)
	}
	if r := float64(p.Mispredicts) / float64(p.Lookups); r > 0.1 {
		t.Fatalf("biased branch mispredict rate %v too high", r)
	}
}

func TestBPredAlternatingPatternGshare(t *testing.T) {
	p := NewBPred(1024)
	// Strict alternation is hard for bimodal, easy for history-based.
	taken := false
	for i := 0; i < 4000; i++ {
		p.Update(64, taken)
		taken = !taken
	}
	// Only consider steady state: re-measure over the last 1000.
	p.Lookups, p.Mispredicts = 0, 0
	for i := 0; i < 1000; i++ {
		p.Update(64, taken)
		taken = !taken
	}
	if r := float64(p.Mispredicts) / float64(p.Lookups); r > 0.05 {
		t.Fatalf("alternating pattern mispredict rate %v; gshare should capture it", r)
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{DefaultConfig(), Constrained(), Aggressive()}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v should validate: %v", c, err)
		}
	}
	bad := DefaultConfig()
	bad.BPredSize = 1000 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two predictor should fail")
	}
	bad2 := DefaultConfig()
	bad2.IssueWidth = 0
	if bad2.Validate() == nil {
		t.Error("zero issue width should fail")
	}
}

// TestConfigCaps: every field that sizes an allocation validates at its hard
// cap and fails one above it, so a configuration from outside the process
// (a worker's lease, a simrun flag) is refused before NewCPU allocates for
// it. Each cap is at least 8× the largest value the repository uses.
func TestConfigCaps(t *testing.T) {
	for _, c := range []struct {
		name  string
		field func(*Config) *int
		cap   int
		used  int // the largest value the repository uses
	}{
		{"ICacheKB", func(c *Config) *int { return &c.ICacheKB }, maxCacheKB, 128},
		{"DCacheKB", func(c *Config) *int { return &c.DCacheKB }, maxCacheKB, 128},
		{"L2KB", func(c *Config) *int { return &c.L2KB }, maxCacheKB, 8192},
		{"BPredSize", func(c *Config) *int { return &c.BPredSize }, maxBPredSize, 8192},
		{"RUUSize", func(c *Config) *int { return &c.RUUSize }, maxRUUSize, 128},
		{"DCacheAssoc", func(c *Config) *int { return &c.DCacheAssoc }, maxAssoc, 2},
		{"L2Assoc", func(c *Config) *int { return &c.L2Assoc }, maxAssoc, 16},
	} {
		if c.cap < 8*c.used {
			t.Errorf("%s: cap %d below 8× %d", c.name, c.cap, c.used)
		}
		cfg := DefaultConfig()
		*c.field(&cfg) = c.cap
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s at its cap %d: %v", c.name, c.cap, err)
		}
		over := c.cap + 1
		if c.name == "BPredSize" {
			over = 2 * c.cap // the next power of two
		}
		*c.field(&cfg) = over
		if cfg.Validate() == nil {
			t.Errorf("%s = %d above its cap validated", c.name, over)
		}
	}
}

func TestSimulateBasics(t *testing.T) {
	st, err := Simulate(handProgram(1000), DefaultConfig(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExitValue != 499500 {
		t.Fatalf("exit = %d", st.ExitValue)
	}
	if st.Cycles <= 0 || st.Instructions <= 0 {
		t.Fatal("no cycles/instructions recorded")
	}
	if st.IPC() <= 0 || st.IPC() > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("IPC %v out of range", st.IPC())
	}
	if st.Branches == 0 {
		t.Fatal("loop branches not counted")
	}
}

// memProgram walks an array of `words` words `iters` times with the given
// stride, to exercise the data hierarchy.
func memProgram(words, iters, stride int64) *isa.Program {
	// r11=i, r12=addr, r13=end, r14=sum, r15=base, r16=iter
	base := int64(isa.GlobalBase)
	return &isa.Program{
		Entry: 0,
		Instrs: []isa.Instr{
			{Op: isa.OpCall, Target: 2},
			{Op: isa.OpHalt},
			{Op: isa.OpLui, Rd: 15, Imm: base},
			{Op: isa.OpLui, Rd: 13, Imm: base + words*8},
			{Op: isa.OpLui, Rd: 14, Imm: 0},
			{Op: isa.OpLui, Rd: 16, Imm: iters},
			// outer: if iter == 0 done
			{Op: isa.OpBeq, Rs1: 16, Rs2: isa.RegZero, Target: 15},
			{Op: isa.OpAdd, Rd: 12, Rs1: 15, Rs2: isa.RegZero},
			// inner: if addr >= end, next outer
			{Op: isa.OpBge, Rs1: 12, Rs2: 13, Target: 13},
			{Op: isa.OpLoad, Rd: 11, Rs1: 12},
			{Op: isa.OpAdd, Rd: 14, Rs1: 14, Rs2: 11},
			{Op: isa.OpAddi, Rd: 12, Rs1: 12, Imm: stride * 8},
			{Op: isa.OpJump, Target: 8},
			{Op: isa.OpAddi, Rd: 16, Rs1: 16, Imm: -1},
			{Op: isa.OpJump, Target: 6},
			{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: 14, Rs2: isa.RegZero},
			{Op: isa.OpRet},
		},
		Symbols:  map[string]int32{"main": 2},
		DataSize: words * 8,
	}
}

func mustSim(t *testing.T, p *isa.Program, cfg Config) Stats {
	t.Helper()
	st, err := Simulate(p, cfg, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTimingCacheSizeMatters(t *testing.T) {
	// 64KB working set: fits in 128KB L1, thrashes an 8KB L1.
	prog := memProgram(8192, 20, 1)
	small := DefaultConfig()
	small.DCacheKB = 8
	big := DefaultConfig()
	big.DCacheKB = 128
	cs := mustSim(t, prog, small)
	cb := mustSim(t, prog, big)
	if cb.Cycles >= cs.Cycles {
		t.Fatalf("bigger dcache should be faster: 8KB=%d 128KB=%d", cs.Cycles, cb.Cycles)
	}
	if cb.DL1Misses >= cs.DL1Misses {
		t.Fatalf("bigger dcache should miss less: %d vs %d", cb.DL1Misses, cs.DL1Misses)
	}
}

func TestTimingMemoryLatencyMatters(t *testing.T) {
	// Working set way beyond L2: every line comes from DRAM.
	prog := memProgram(1<<20, 1, 8) // 8MB, stride 64B
	slow := DefaultConfig()
	slow.MemLat = 150
	fast := DefaultConfig()
	fast.MemLat = 50
	ss := mustSim(t, prog, slow)
	sf := mustSim(t, prog, fast)
	if sf.Cycles >= ss.Cycles {
		t.Fatalf("lower memory latency should be faster: %d vs %d", sf.Cycles, ss.Cycles)
	}
}

// ilpProgram is a loop with six independent ALU ops per branch, so issue
// width is the bottleneck rather than the branch unit.
func ilpProgram(iters int64) *isa.Program {
	return &isa.Program{
		Entry: 0,
		Instrs: []isa.Instr{
			{Op: isa.OpCall, Target: 2},
			{Op: isa.OpHalt},
			// main: r16 = iters; r11..r15 accumulators
			{Op: isa.OpLui, Rd: 16, Imm: iters},
			{Op: isa.OpLui, Rd: 11, Imm: 1},
			{Op: isa.OpLui, Rd: 12, Imm: 2},
			{Op: isa.OpLui, Rd: 13, Imm: 3},
			{Op: isa.OpLui, Rd: 14, Imm: 4},
			{Op: isa.OpLui, Rd: 15, Imm: 5},
			// loop:
			{Op: isa.OpBeq, Rs1: 16, Rs2: isa.RegZero, Target: 16},
			{Op: isa.OpAdd, Rd: 11, Rs1: 11, Rs2: 12},
			{Op: isa.OpAdd, Rd: 12, Rs1: 12, Rs2: 13},
			{Op: isa.OpAdd, Rd: 13, Rs1: 13, Rs2: 14},
			{Op: isa.OpAdd, Rd: 14, Rs1: 14, Rs2: 15},
			{Op: isa.OpXor, Rd: 15, Rs1: 15, Rs2: 11},
			{Op: isa.OpAddi, Rd: 16, Rs1: 16, Imm: -1},
			{Op: isa.OpJump, Target: 8},
			// done:
			{Op: isa.OpAdd, Rd: isa.RegRV, Rs1: 11, Rs2: isa.RegZero},
			{Op: isa.OpRet},
		},
		Symbols: map[string]int32{"main": 2},
	}
}

func TestTimingIssueWidthMatters(t *testing.T) {
	prog := ilpProgram(100000)
	narrow := DefaultConfig()
	narrow.IssueWidth = 2
	wide := DefaultConfig()
	wide.IssueWidth = 4
	cn := mustSim(t, prog, narrow)
	cw := mustSim(t, prog, wide)
	if cw.Cycles >= cn.Cycles {
		t.Fatalf("wider issue should be faster: w2=%d w4=%d", cn.Cycles, cw.Cycles)
	}
}

func TestTimingRUUMatters(t *testing.T) {
	// Independent long-latency loads: a big window overlaps them.
	prog := memProgram(1<<18, 4, 8)
	small := DefaultConfig()
	small.RUUSize = 16
	big := DefaultConfig()
	big.RUUSize = 128
	cs := mustSim(t, prog, small)
	cb := mustSim(t, prog, big)
	if cb.Cycles >= cs.Cycles {
		t.Fatalf("bigger RUU should be faster on MLP workload: 16=%d 128=%d", cs.Cycles, cb.Cycles)
	}
}

func TestWarmFeedTouchesCachesNotTiming(t *testing.T) {
	cpu := NewCPU(DefaultConfig())
	dec := Decode(&isa.Program{Instrs: []isa.Instr{{Op: isa.OpLoad, Rd: 11, Rs1: 12}}})
	cpu.WarmChunk(dec, []TraceEntry{{PC: 0, Addr: isa.GlobalBase}})
	st := cpu.Stats()
	if st.DL1Accesses != 1 {
		t.Fatal("warm feed should access dcache")
	}
	if st.Cycles != 0 || st.Instructions != 0 {
		t.Fatal("warm feed must not advance timing")
	}
}
