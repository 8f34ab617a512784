package compiler

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

// The -fschedule-insns2 implementation: critical-path list scheduling, run
// once on the IR before register allocation and once on the generated
// machine code after it, with a resource model parameterized by the target
// issue width (the "machine description" the paper rebuilds gcc for, per
// functional-unit configuration).

// schedNode is one schedulable operation in the dependence DAG.
type schedNode struct {
	latency int
	fu      isa.FUClass
	preds   []int32
	succs   []int32
}

// fuQuota returns per-cycle issue quotas per FU class for a given width,
// matching the simulator's functional-unit provisioning.
func fuQuota(width int) [isa.NumFUClasses]int {
	var q [isa.NumFUClasses]int
	q[isa.FUNone] = width
	q[isa.FUIntALU] = width
	q[isa.FUIntMul] = 1
	q[isa.FUMem] = width / 2
	if q[isa.FUMem] < 1 {
		q[isa.FUMem] = 1
	}
	q[isa.FUBranch] = 1
	return q
}

// pressureInfo lets the pre-RA scheduler estimate register pressure while
// scheduling: values opened by defs and closed at their last in-block use.
// When the live estimate exceeds Threshold, the scheduler prefers ready
// nodes that shrink the live set over pure critical-path priority —
// mirroring the pressure heuristics production schedulers use to keep
// -fschedule-insns from drowning the allocator in spills.
type pressureInfo struct {
	defOf     []int32   // per node: defined value id, or -1
	usesOf    [][]int32 // per node: used value ids
	liveOut   map[int32]bool
	threshold int
}

// listSchedule returns an order of node indices minimizing (greedily) the
// schedule length under the latency and resource constraints. Ties break by
// original index, keeping the output deterministic and close to source
// order.
func listSchedule(nodes []schedNode, width int, press *pressureInfo) []int {
	n := len(nodes)
	if n == 0 {
		return nil
	}
	// Remaining in-block uses per value, for pressure tracking.
	var remUses map[int32]int
	live := 0
	if press != nil {
		remUses = map[int32]int{}
		for i := range nodes {
			for _, u := range press.usesOf[i] {
				remUses[u]++
			}
		}
	}
	netClosure := func(i int) int {
		closes := 0
		seen := map[int32]bool{}
		for _, u := range press.usesOf[i] {
			if seen[u] {
				continue
			}
			seen[u] = true
			if remUses[u] == 1 && !press.liveOut[u] {
				closes++
			}
		}
		opens := 0
		if press.defOf[i] >= 0 {
			opens = 1
		}
		return closes - opens
	}
	// Priority: critical-path height (longest latency chain to a sink).
	height := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		h := nodes[i].latency
		for _, s := range nodes[i].succs {
			if v := nodes[i].latency + height[s]; v > h {
				h = v
			}
		}
		height[i] = h
	}
	indeg := make([]int, n)
	readyAt := make([]int, n)
	for i := range nodes {
		indeg[i] = len(nodes[i].preds)
	}
	quota := fuQuota(width)

	order := make([]int, 0, n)
	scheduled := make([]bool, n)
	cycle := 0
	var avail [isa.NumFUClasses]int
	slots := 0
	resetCycle := func() {
		avail = quota
		slots = width
	}
	resetCycle()
	for len(order) < n {
		// Pick the highest-priority ready node that fits this cycle.
		// Under register pressure, prefer the node that most shrinks the
		// live set instead.
		pressured := press != nil && live >= press.threshold
		best := -1
		bestClosure := 0
		for i := 0; i < n; i++ {
			if scheduled[i] || indeg[i] > 0 || readyAt[i] > cycle {
				continue
			}
			if avail[nodes[i].fu] <= 0 || slots <= 0 {
				continue
			}
			if best == -1 {
				best = i
				if pressured {
					bestClosure = netClosure(i)
				}
				continue
			}
			if pressured {
				if c := netClosure(i); c > bestClosure {
					best, bestClosure = i, c
				}
			} else if height[i] > height[best] {
				best = i
			}
		}
		if best == -1 {
			cycle++
			resetCycle()
			continue
		}
		scheduled[best] = true
		order = append(order, best)
		avail[nodes[best].fu]--
		slots--
		if press != nil {
			for _, u := range press.usesOf[best] {
				remUses[u]--
				if remUses[u] == 0 && !press.liveOut[u] {
					live--
				}
			}
			if press.defOf[best] >= 0 {
				live++
			}
		}
		done := cycle + nodes[best].latency
		for _, s := range nodes[best].succs {
			indeg[s]--
			if done > readyAt[s] {
				readyAt[s] = done
			}
		}
	}
	return order
}

// addEdge adds the dependence from → to once. Both graph builders add every
// edge into to while they process to, in increasing order of to, so an edge
// already present can only be from's last successor; checking that one
// element keeps a build linear in its edges where memory ops, each ordered
// after every earlier one, made a scan of succs quadratic.
func addEdge(nodes []schedNode, from, to int32) {
	if from == to {
		return
	}
	if s := nodes[from].succs; len(s) > 0 && s[len(s)-1] == to {
		return
	}
	nodes[from].succs = append(nodes[from].succs, to)
	nodes[to].preds = append(nodes[to].preds, from)
}

// irLatency estimates the IR-level latency used for scheduling priorities.
func irLatency(op ir.Op) int {
	switch op {
	case ir.OpMul:
		return 4
	case ir.OpDiv, ir.OpRem:
		return 12
	case ir.OpLoad:
		return 3 // assume L1 hit
	default:
		return 1
	}
}

func irFU(op ir.Op) isa.FUClass {
	switch op {
	case ir.OpMul, ir.OpDiv, ir.OpRem:
		return isa.FUIntMul
	case ir.OpLoad, ir.OpStore, ir.OpPrefetch:
		return isa.FUMem
	case ir.OpCall:
		return isa.FUBranch
	default:
		return isa.FUIntALU
	}
}

// schedPressureThreshold approximates the allocatable register count; the
// pre-RA scheduler backs off to pressure-reducing choices beyond it.
const schedPressureThreshold = 16

// ScheduleIR reorders the body of every basic block of f by list scheduling
// (pre-register-allocation pass).
func ScheduleIR(f *ir.Func, width int) {
	lv := ir.ComputeLiveness(f)
	for _, b := range f.Blocks {
		body := b.Body()
		if len(body) < 2 {
			continue
		}
		nodes := make([]schedNode, len(body))
		press := &pressureInfo{
			defOf:     make([]int32, len(body)),
			usesOf:    make([][]int32, len(body)),
			liveOut:   map[int32]bool{},
			threshold: schedPressureThreshold,
		}
		for v := 0; v < f.NumValues(); v++ {
			if lv.Out[b].Has(ir.Value(v)) {
				press.liveOut[int32(v)] = true
			}
		}
		lastDef := map[ir.Value]int32{}
		lastUses := map[ir.Value][]int32{}
		memWriters := []int32{} // stores & calls so far
		memReaders := []int32{} // loads & calls so far
		var buf []ir.Value
		for i := range body {
			in := &body[i]
			nodes[i] = schedNode{latency: irLatency(in.Op), fu: irFU(in.Op)}
			idx := int32(i)
			press.defOf[i] = -1
			if d := in.Def(); d != ir.NoValue {
				press.defOf[i] = int32(d)
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				press.usesOf[i] = append(press.usesOf[i], int32(u))
				if d, ok := lastDef[u]; ok {
					addEdge(nodes, d, idx) // RAW
				}
				lastUses[u] = append(lastUses[u], idx)
			}
			if d := in.Def(); d != ir.NoValue {
				if prev, ok := lastDef[d]; ok {
					addEdge(nodes, prev, idx) // WAW
				}
				for _, u := range lastUses[d] {
					addEdge(nodes, u, idx) // WAR
				}
				lastUses[d] = nil
				lastDef[d] = idx
			}
			switch in.Op {
			case ir.OpLoad, ir.OpPrefetch:
				for _, w := range memWriters {
					addEdge(nodes, w, idx)
				}
				if in.Op == ir.OpLoad {
					memReaders = append(memReaders, idx)
				}
			case ir.OpStore, ir.OpCall:
				for _, w := range memWriters {
					addEdge(nodes, w, idx)
				}
				for _, r := range memReaders {
					addEdge(nodes, r, idx)
				}
				memWriters = append(memWriters, idx)
				if in.Op == ir.OpCall {
					memReaders = append(memReaders, idx)
				}
			}
		}
		order := listSchedule(nodes, width, press)
		out := make([]ir.Instr, 0, len(b.Instrs))
		for _, i := range order {
			out = append(out, body[i])
		}
		if t := b.Term(); t != nil {
			out = append(out, *t)
		}
		b.Instrs = out
	}
}

// machineUses/machineDefs describe physical register dependencies of a
// machine instruction for post-RA scheduling.
func machineUses(in *isa.Instr) []uint8 {
	switch in.Op {
	case isa.OpLui, isa.OpNop, isa.OpHalt, isa.OpJump:
		return nil
	case isa.OpAddi, isa.OpLoad, isa.OpPrefetch:
		return []uint8{in.Rs1}
	case isa.OpRet:
		return []uint8{isa.RegRA, isa.RegRV}
	case isa.OpCall:
		return nil // handled as a barrier
	default:
		return []uint8{in.Rs1, in.Rs2}
	}
}

func machineDef(in *isa.Instr) (uint8, bool) {
	if in.Op.WritesReg() {
		if in.Op == isa.OpCall {
			return isa.RegRA, true
		}
		return in.Rd, true
	}
	return 0, false
}

// scheduleMachineRun list-schedules one run of machine instructions that
// contains no control transfers.
func scheduleMachineRun(code []isa.Instr, width int) {
	if len(code) < 2 {
		return
	}
	nodes := make([]schedNode, len(code))
	lastDef := map[uint8]int32{}
	lastUses := map[uint8][]int32{}
	var memOps []int32
	for i := range code {
		in := &code[i]
		lat := in.Op.Latency()
		if in.Op == isa.OpLoad {
			lat = 3
		}
		nodes[i] = schedNode{latency: lat, fu: in.Op.Class()}
		idx := int32(i)
		for _, u := range machineUses(in) {
			if u == isa.RegZero {
				continue
			}
			if d, ok := lastDef[u]; ok {
				addEdge(nodes, d, idx)
			}
			lastUses[u] = append(lastUses[u], idx)
		}
		if d, ok := machineDef(in); ok && d != isa.RegZero {
			if prev, ok := lastDef[d]; ok {
				addEdge(nodes, prev, idx)
			}
			for _, u := range lastUses[d] {
				addEdge(nodes, u, idx)
			}
			lastUses[d] = nil
			lastDef[d] = idx
		}
		// Conservative memory ordering: memory ops stay ordered among
		// themselves (stores may alias loads at unknown addresses).
		if in.Op.IsMem() {
			for _, m := range memOps {
				addEdge(nodes, m, idx)
			}
			memOps = append(memOps, idx)
		}
	}
	order := listSchedule(nodes, width, nil)
	out := make([]isa.Instr, len(code))
	for oi, i := range order {
		out[oi] = code[i]
	}
	copy(code, out)
}

// ScheduleMachine post-RA-schedules the instruction runs between control
// instructions (branches, jumps, calls, returns) in a flat code slice.
func ScheduleMachine(code []isa.Instr, width int) {
	runStart := 0
	for i := 0; i <= len(code); i++ {
		atEnd := i == len(code)
		isBarrier := !atEnd && (code[i].Op.IsControl() || code[i].Op == isa.OpHalt)
		if atEnd || isBarrier {
			scheduleMachineRun(code[runStart:i], width)
			runStart = i + 1
		}
	}
}
