package sim

import (
	"repro/internal/isa"
	"repro/internal/par"
)

// CPU is the trace-fed timing model of an out-of-order superscalar core.
// Instructions are fed in committed program order; the model tracks true
// dataflow through architectural registers (the RUU provides full renaming,
// so WAR/WAW hazards never stall), functional-unit and issue bandwidth,
// RUU occupancy, fetch bandwidth with instruction-cache and branch-redirect
// stalls, and in-order commit bandwidth — the mechanisms SimpleScalar's
// sim-outorder models with the same parameters.
type CPU struct {
	// Hot per-instruction scalars live together at the top of the struct,
	// ahead of the large ring arrays, so the common path touches as few
	// cache lines as possible.

	cfg Config

	IL1, DL1, L2 *Cache
	BP           *BPred

	// Fetch state.
	fetchCycle int64
	fetchCount int
	lastLine   uint64 // last icache line fetched (+1 so 0 means "none")

	// RUU occupancy: commit cycle of the seq-RUUSize-older instruction.
	// ruuPos is seq modulo the ring size, maintained incrementally so the
	// hot loop never divides.
	commitRing []int64
	ruuPos     int
	seq        int64

	// Memory bus: cycle at which the next DRAM transfer may start.
	busFree int64

	// Commit bandwidth.
	lastCommitCycle int64
	commitsThisCyc  int

	stats Stats

	regReady [isa.NumRegs]int64

	// Functional units: next-free cycle per unit instance.
	fu [isa.NumFUClasses][]int64

	// Trace, when non-nil, receives one event per committed instruction
	// with its pipeline timing — the sim-outorder "-ptrace" analogue.
	Trace func(TraceEvent)

	// Issue bandwidth ring: per-cycle issue bookkeeping, packed as
	// cycle<<issueCountBits | count so each slot is one cache-line touch.
	// Config.Validate caps IssueWidth at 8, so 4 count bits never carry
	// into the cycle field.
	issueRing [issueRingSize]int64
}

const (
	issueRingSize   = 4096
	issueCountBits  = 4
	issueCountMask  = 1<<issueCountBits - 1
	redirectPenalty = 3
)

// NewCPU builds a timing model for the given configuration.
func NewCPU(cfg Config) *CPU {
	c := &CPU{
		cfg: cfg,
		IL1: NewCache(cfg.ICacheKB, 1),
		DL1: NewCache(cfg.DCacheKB, cfg.DCacheAssoc),
		L2:  NewCache(cfg.L2KB, cfg.L2Assoc),
		BP:  NewBPred(cfg.BPredSize),
	}
	w := cfg.IssueWidth
	c.fu[isa.FUIntALU] = make([]int64, w)
	c.fu[isa.FUIntMul] = make([]int64, 1)
	mem := w / 2
	if mem < 1 {
		mem = 1
	}
	c.fu[isa.FUMem] = make([]int64, mem)
	c.fu[isa.FUBranch] = make([]int64, 1)
	c.commitRing = make([]int64, cfg.RUUSize)
	return c
}

// busOccupancy is the number of cycles the memory bus is busy per DRAM line
// transfer; back-to-back misses (and aggressive prefetching) queue behind
// each other — the bus-contention effect the paper calls out as a secondary
// cost of -fprefetch-loop-arrays.
const busOccupancy = 4

// busDelay accounts one DRAM transfer starting no earlier than `when`,
// returning the queueing delay in front of it.
func (c *CPU) busDelay(when int64) int64 {
	start := when
	if c.busFree > start {
		start = c.busFree
	}
	c.busFree = start + busOccupancy
	return start - when
}

// dAccess runs a data-side access through DL1 and L2 at time `when` and
// returns its latency including any memory-bus queueing.
func (c *CPU) dAccess(addr uint64, when int64) int64 {
	c.stats.Energy += energyDL1
	if c.DL1.Access(addr) {
		return int64(c.cfg.DCacheLat)
	}
	c.stats.Energy += energyL2
	if c.L2.Access(addr) {
		return int64(c.cfg.DCacheLat + c.cfg.L2Lat)
	}
	c.stats.Energy += energyDRAM
	queue := c.busDelay(when + int64(c.cfg.DCacheLat+c.cfg.L2Lat))
	return int64(c.cfg.DCacheLat+c.cfg.L2Lat+c.cfg.MemLat) + queue
}

// iAccess runs an instruction-fetch access through IL1 and L2 at time `when`
// and returns the added stall (0 on an L1 hit).
func (c *CPU) iAccess(addr uint64, when int64) int64 {
	c.stats.Energy += energyIL1
	if c.IL1.Access(addr) {
		return 0
	}
	c.stats.Energy += energyL2
	if c.L2.Access(addr) {
		return int64(c.cfg.L2Lat)
	}
	c.stats.Energy += energyDRAM
	queue := c.busDelay(when + int64(c.cfg.L2Lat))
	return int64(c.cfg.L2Lat+c.cfg.MemLat) + queue
}

// issueAt finds the first cycle >= want with spare issue bandwidth and
// records the issue.
func (c *CPU) issueAt(want int64) int64 {
	for {
		slot := want & (issueRingSize - 1)
		v := c.issueRing[slot]
		if v>>issueCountBits != want {
			c.issueRing[slot] = want<<issueCountBits | 1
			return want
		}
		if int(v&issueCountMask) < c.cfg.IssueWidth {
			c.issueRing[slot] = v + 1
			return want
		}
		want++
	}
}

// Feed advances the model by one committed instruction. in must be the
// instruction at entry.PC. It decodes on the fly; hot loops should decode
// the program once and use FeedDecoded instead.
func (c *CPU) Feed(in *isa.Instr, entry TraceEntry) {
	m := decodeInstr(in, entry.PC)
	c.feed(in, &m, entry)
}

// FeedDecoded is Feed against a pre-decoded program: one flat-table index
// replaces the per-instruction opcode switches.
func (c *CPU) FeedDecoded(d *DecodedProgram, entry TraceEntry) {
	c.feed(&d.Prog.Instrs[entry.PC], &d.meta[entry.PC], entry)
}

func (c *CPU) feed(in *isa.Instr, m *instrMeta, entry TraceEntry) {
	c.stats.Instructions++

	// --- Fetch ---
	if m.line != c.lastLine {
		c.lastLine = m.line
		if stall := c.iAccess(m.pcByte, c.fetchCycle); stall > 0 {
			c.fetchCycle += stall
			c.fetchCount = 0
		}
	}
	if c.fetchCount >= c.cfg.IssueWidth {
		c.fetchCycle++
		c.fetchCount = 0
	}

	// --- Dispatch: need a free RUU slot ---
	dispatch := c.fetchCycle
	if slotFree := c.commitRing[c.ruuPos]; slotFree > dispatch {
		dispatch = slotFree
		// The front end backs up behind the full window.
		c.fetchCycle = dispatch
		c.fetchCount = 0
	}
	c.fetchCount++

	// --- Issue: operands, functional unit, issue bandwidth ---
	ready := dispatch + 1
	if m.src1 != isa.RegZero && c.regReady[m.src1] > ready {
		ready = c.regReady[m.src1]
	}
	if m.src2 != isa.RegZero && c.regReady[m.src2] > ready {
		ready = c.regReady[m.src2]
	}
	units := c.fu[m.fu]
	best := 0
	for u := 1; u < len(units); u++ {
		if units[u] < units[best] {
			best = u
		}
	}
	if units[best] > ready {
		ready = units[best]
	}
	issue := c.issueAt(ready)
	// Fully pipelined units except divide.
	occupy := int64(1)
	if m.flags&flagUnpipelined != 0 {
		occupy = m.lat
	}
	units[best] = issue + occupy

	// --- Execute latency ---
	var lat int64
	switch {
	case m.flags&flagLoad != 0:
		lat = c.dAccess(entry.Addr, issue)
	case m.flags&flagStoreLike != 0:
		c.dAccess(entry.Addr, issue) // fills the hierarchy; store buffer hides latency
		lat = 1
	default:
		lat = m.lat
	}
	done := issue + lat
	c.stats.Energy += m.energy

	if m.dest != isa.RegZero {
		c.regReady[m.dest] = done
	}

	// --- Control flow ---
	if m.flags&flagBranch != 0 {
		c.stats.Branches++
		correct := c.BP.Update(entry.PC, entry.Taken)
		if !correct {
			c.stats.Mispredicts++
			c.stats.Energy += energyMispredict
			redirect := done + redirectPenalty
			if redirect > c.fetchCycle {
				c.fetchCycle = redirect
			}
			c.fetchCount = 0
		} else if entry.Taken {
			// Correctly predicted taken: the fetch group still ends.
			c.fetchCount = c.cfg.IssueWidth
		}
	} else if m.flags&flagControl != 0 {
		// Unconditional transfers (jump/call/ret): perfect target
		// prediction, but the fetch group ends.
		c.fetchCount = c.cfg.IssueWidth
	}

	// --- Commit: in order, width per cycle ---
	commit := done + 1
	if commit < c.lastCommitCycle {
		commit = c.lastCommitCycle
	}
	if commit == c.lastCommitCycle {
		c.commitsThisCyc++
		if c.commitsThisCyc > c.cfg.IssueWidth {
			commit++
			c.commitsThisCyc = 1
		}
	} else {
		c.commitsThisCyc = 1
	}
	c.lastCommitCycle = commit
	c.commitRing[c.ruuPos] = commit
	c.ruuPos++
	if c.ruuPos == len(c.commitRing) {
		c.ruuPos = 0
	}
	c.seq++

	if commit > c.stats.Cycles {
		c.stats.Cycles = commit
	}

	if c.Trace != nil {
		c.Trace(TraceEvent{
			Seq:      c.seq - 1,
			PC:       entry.PC,
			Instr:    *in,
			Dispatch: dispatch,
			Issue:    issue,
			Done:     done,
			Commit:   commit,
		})
	}
}

// TraceEvent reports one committed instruction's trip through the pipeline.
type TraceEvent struct {
	Seq      int64
	PC       int32
	Instr    isa.Instr
	Dispatch int64
	Issue    int64
	Done     int64
	Commit   int64
}

// ResetTiming clears the pipeline state (register readiness, functional
// units, window occupancy, fetch/issue/commit bookkeeping and timing
// statistics) while preserving cache and branch-predictor contents. SMARTS
// uses it to start a fresh detailed window over functionally warmed state.
func (c *CPU) ResetTiming() {
	c.regReady = [isa.NumRegs]int64{}
	for class := range c.fu {
		for u := range c.fu[class] {
			c.fu[class][u] = 0
		}
	}
	for i := range c.commitRing {
		c.commitRing[i] = 0
	}
	c.ruuPos = 0
	c.seq = 0
	c.fetchCycle = 0
	c.fetchCount = 0
	c.lastLine = 0
	c.issueRing = [issueRingSize]int64{}
	c.busFree = 0
	c.lastCommitCycle = 0
	c.commitsThisCyc = 0
	c.stats = Stats{}
}

// Stats returns a snapshot of the accumulated statistics, including cache
// and predictor counters.
func (c *CPU) Stats() Stats {
	s := c.stats
	s.IL1Accesses, s.IL1Misses = c.IL1.Accesses, c.IL1.Misses
	s.DL1Accesses, s.DL1Misses = c.DL1.Accesses, c.DL1.Misses
	s.L2Accesses, s.L2Misses = c.L2.Accesses, c.L2.Misses
	return s
}

// instrSources returns up to two source registers of an instruction
// (RegZero for unused slots).
func instrSources(in *isa.Instr) (uint8, uint8) {
	switch in.Op {
	case isa.OpLui, isa.OpNop, isa.OpHalt, isa.OpJump, isa.OpCall:
		return isa.RegZero, isa.RegZero
	case isa.OpAddi, isa.OpLoad, isa.OpPrefetch:
		return in.Rs1, isa.RegZero
	case isa.OpRet:
		return isa.RegRA, isa.RegZero
	default:
		return in.Rs1, in.Rs2
	}
}

// Simulate runs prog to completion (bounded by maxInstrs) under the given
// configuration and returns the statistics. It is where production picks the
// engine: the basic-block translated engine, whose slow path is runFused;
// every engine returns bit-for-bit the same Stats.
func Simulate(prog *isa.Program, cfg Config, maxInstrs int64) (Stats, error) {
	st, _, err := SimulateEngine(prog, cfg, maxInstrs, EngineBB)
	return st, err
}

// SimulateMany runs prog to completion under each configuration: Simulate
// per configuration, spread over GOMAXPROCS goroutines. Results are
// bit-for-bit identical to len(cfgs) sequential Simulate calls; on error it
// returns the error of the lowest-index configuration that failed, and no
// results.
func SimulateMany(prog *isa.Program, cfgs []Config, maxInstrs int64) ([]Stats, error) {
	out := make([]Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	par.For(len(cfgs), 0, func(i int) {
		out[i], errs[i] = Simulate(prog, cfgs[i], maxInstrs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Energy accounting (arbitrary units, roughly proportional to nanojoules on
// a mid-2000s process). The model is activity-based: every committed
// instruction pays a per-class cost, every cache/DRAM touch pays an access
// cost, and mispredictions pay a flush cost. The paper notes the same
// methodology applies to responses "such as power consumption"; this
// implements that extension.
const (
	energyIL1        = 0.4
	energyDL1        = 0.6
	energyL2         = 3.0
	energyDRAM       = 25.0
	energyMispredict = 4.0
)

func instrEnergy(op isa.Op) float64 {
	switch op.Class() {
	case isa.FUIntMul:
		if op == isa.OpDiv || op == isa.OpRem {
			return 3.0
		}
		return 1.5
	case isa.FUMem:
		return 0.8
	case isa.FUBranch:
		return 0.6
	default:
		return 0.5
	}
}
