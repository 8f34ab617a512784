package compiler

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Allocation is the result of register allocation for one function: every
// virtual register is mapped to either a physical register or a spill slot.
type Allocation struct {
	// Reg[v] is the physical register assigned to value v, or -1 if
	// spilled.
	Reg []int16
	// Slot[v] is the spill slot index for value v, or -1.
	Slot []int32
	// NumSlots is the number of spill slots used.
	NumSlots int
	// UsedRegs lists the physical registers the function writes (for
	// callee-save bookkeeping), ascending.
	UsedRegs []int16
}

// allocatableRegs returns the physical registers available to the allocator.
// r30/r31 are reserved as spill scratch; the frame pointer r3 joins the pool
// when -fomit-frame-pointer is on — the paper identifies this extra register
// (plus the shorter prologue) as one of the most significant compiler knobs.
func allocatableRegs(omitFP bool) []int16 {
	var regs []int16
	if omitFP {
		regs = append(regs, isa.RegFP)
	}
	for r := int16(isa.RegGP); r <= 29; r++ {
		regs = append(regs, r)
	}
	return regs
}

// interval is a live range over the linearized instruction index space.
type interval struct {
	v          ir.Value
	start, end int
	weight     float64 // spill cost estimate: Σ freq of touching blocks
}

// Allocate performs linear-scan register allocation over f, choosing spill
// victims by the estimated execution frequency of their uses. Block order
// follows f.Blocks. The returned allocation covers every virtual register
// that is ever live; registers never touched map to (-1, -1).
func Allocate(f *ir.Func, omitFP bool) *Allocation {
	n := f.NumValues()
	alloc := &Allocation{
		Reg:  make([]int16, n),
		Slot: make([]int32, n),
	}
	for i := range alloc.Reg {
		alloc.Reg[i] = -1
		alloc.Slot[i] = -1
	}

	lv := ir.ComputeLiveness(f)
	ivals := buildIntervals(f, lv)
	if len(ivals) == 0 {
		return alloc
	}
	pool := allocatableRegs(omitFP)

	// Linear scan (Poletto & Sarkar) with farthest-end spilling, weighted
	// by estimated use frequency.
	sort.Slice(ivals, func(i, j int) bool {
		if ivals[i].start != ivals[j].start {
			return ivals[i].start < ivals[j].start
		}
		return ivals[i].v < ivals[j].v
	})
	type activeEntry struct {
		iv  *interval
		reg int16
	}
	var active []activeEntry
	free := append([]int16{}, pool...)
	usedSet := map[int16]bool{}
	nextSlot := int32(0)

	expire := func(pos int) {
		kept := active[:0]
		for _, a := range active {
			if a.iv.end < pos {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}

	for i := range ivals {
		cur := &ivals[i]
		expire(cur.start)
		if len(free) > 0 {
			// Prefer the lowest-numbered free register (deterministic).
			sort.Slice(free, func(a, b int) bool { return free[a] < free[b] })
			r := free[0]
			free = free[1:]
			alloc.Reg[cur.v] = r
			usedSet[r] = true
			active = append(active, activeEntry{cur, r})
			continue
		}
		// Spill the active interval with the lowest weight-per-length
		// among those ending last; simple heuristic: spill the one with
		// the smallest weight, break ties by farthest end.
		victim := -1
		for ai := range active {
			if active[ai].iv.end <= cur.end {
				continue // prefer victims that live longer than cur
			}
			if victim == -1 ||
				active[ai].iv.weight < active[victim].iv.weight ||
				(active[ai].iv.weight == active[victim].iv.weight &&
					active[ai].iv.end > active[victim].iv.end) {
				victim = ai
			}
		}
		if victim >= 0 && active[victim].iv.weight <= cur.weight {
			// Steal the victim's register.
			v := active[victim]
			alloc.Reg[cur.v] = v.reg
			alloc.Reg[v.iv.v] = -1
			alloc.Slot[v.iv.v] = nextSlot
			nextSlot++
			active[victim] = activeEntry{cur, v.reg}
		} else {
			alloc.Slot[cur.v] = nextSlot
			nextSlot++
		}
	}
	alloc.NumSlots = int(nextSlot)
	for r := range usedSet {
		alloc.UsedRegs = append(alloc.UsedRegs, r)
	}
	sort.Slice(alloc.UsedRegs, func(i, j int) bool { return alloc.UsedRegs[i] < alloc.UsedRegs[j] })
	return alloc
}

func buildIntervals(f *ir.Func, lv *ir.Liveness) []interval {
	n := f.NumValues()
	start := make([]int, n)
	end := make([]int, n)
	weight := make([]float64, n)
	seen := make([]bool, n)
	touch := func(v ir.Value, pos int, w float64) {
		if v == ir.NoValue {
			return
		}
		i := int(v)
		if !seen[i] {
			seen[i] = true
			start[i], end[i] = pos, pos
		} else {
			if pos < start[i] {
				start[i] = pos
			}
			if pos > end[i] {
				end[i] = pos
			}
		}
		weight[i] += w
	}

	idx := 0
	var buf []ir.Value
	for _, b := range f.Blocks {
		blockStart := idx
		blockEnd := idx + len(b.Instrs)
		for vi := 0; vi < n; vi++ {
			v := ir.Value(vi)
			if lv.In[b].Has(v) {
				touch(v, blockStart, 0)
			}
			if lv.Out[b].Has(v) {
				touch(v, blockEnd, 0)
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				touch(u, idx, b.Freq)
			}
			touch(in.Def(), idx, b.Freq)
			idx++
		}
		idx++ // gap between blocks
	}
	// Parameters are live from index 0.
	for _, p := range f.Params {
		touch(p, 0, 1)
	}

	var ivals []interval
	for i := 0; i < n; i++ {
		if seen[i] {
			ivals = append(ivals, interval{v: ir.Value(i), start: start[i], end: end[i], weight: weight[i]})
		}
	}
	return ivals
}
