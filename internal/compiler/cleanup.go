package compiler

import (
	"repro/internal/ir"
)

// Cleanup runs the always-on scalar and CFG simplifications that gcc performs
// regardless of -O flags: constant folding, algebraic simplification, copy
// propagation, dead code elimination, branch folding and basic-block merging.
// Optimization passes call it between phases to keep the IR canonical.
func Cleanup(f *ir.Func) {
	for round := 0; round < 8; round++ {
		changed := foldConstants(f)
		changed = propagateCopies(f) || changed
		changed = coalesceCopies(f) || changed
		changed = eliminateDeadCode(f) || changed
		changed = simplifyCFG(f) || changed
		if !changed {
			return
		}
	}
}

// constValues returns the constant value of every single-def OpConst vreg.
func constValues(f *ir.Func) (map[ir.Value]int64, []int) {
	defs := f.DefCounts()
	consts := map[ir.Value]int64{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpConst && defs[in.Dst] == 1 {
				consts[in.Dst] = in.Imm
			}
		}
	}
	return consts, defs
}

func evalBinop(op ir.Op, x, y int64) (int64, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return x + y, true
	case ir.OpSub:
		return x - y, true
	case ir.OpMul:
		return x * y, true
	case ir.OpDiv:
		if y == 0 {
			return 0, true
		}
		return x / y, true
	case ir.OpRem:
		if y == 0 {
			return 0, true
		}
		return x % y, true
	case ir.OpAnd:
		return x & y, true
	case ir.OpOr:
		return x | y, true
	case ir.OpXor:
		return x ^ y, true
	case ir.OpShl:
		return x << (uint64(y) & 63), true
	case ir.OpShr:
		return x >> (uint64(y) & 63), true
	case ir.OpLt:
		return b2i(x < y), true
	case ir.OpLe:
		return b2i(x <= y), true
	case ir.OpEq:
		return b2i(x == y), true
	case ir.OpNe:
		return b2i(x != y), true
	}
	return 0, false
}

// foldConstants evaluates pure ops with constant operands and applies
// algebraic identities.
func foldConstants(f *ir.Func) bool {
	consts, _ := constValues(f)
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.IsPure() || in.Op == ir.OpConst || in.Op == ir.OpCopy || in.Op == ir.OpAddr {
				continue
			}
			cx, okx := consts[in.X]
			cy, oky := consts[in.Y]
			if okx && oky {
				if v, ok := evalBinop(in.Op, cx, cy); ok {
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: v}
					changed = true
					continue
				}
			}
			// Algebraic identities with one constant operand.
			switch {
			case oky && cy == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpSub ||
				in.Op == ir.OpOr || in.Op == ir.OpXor || in.Op == ir.OpShl || in.Op == ir.OpShr):
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, X: in.X}
				changed = true
			case okx && cx == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpOr || in.Op == ir.OpXor):
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, X: in.Y}
				changed = true
			case oky && cy == 1 && (in.Op == ir.OpMul || in.Op == ir.OpDiv):
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, X: in.X}
				changed = true
			case okx && cx == 1 && in.Op == ir.OpMul:
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, X: in.Y}
				changed = true
			case (oky && cy == 0 || okx && cx == 0) && in.Op == ir.OpMul:
				*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: 0}
				changed = true
			}
		}
	}
	return changed
}

// propagateCopies rewrites uses of v, where v is single-def `v = copy x` and
// x is single-def, to use x directly.
func propagateCopies(f *ir.Func) bool {
	defs := f.DefCounts()
	repl := map[ir.Value]ir.Value{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy && defs[in.Dst] == 1 && defs[in.X] == 1 && in.Dst != in.X {
				repl[in.Dst] = in.X
			}
		}
	}
	if len(repl) == 0 {
		return false
	}
	resolve := func(v ir.Value) ir.Value {
		for hops := 0; hops < 64; hops++ {
			r, ok := repl[v]
			if !ok {
				break
			}
			v = r
		}
		return v
	}
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			rw := func(v *ir.Value) {
				if *v == ir.NoValue {
					return
				}
				if r := resolve(*v); r != *v {
					*v = r
					changed = true
				}
			}
			switch in.Op {
			case ir.OpConst, ir.OpAddr, ir.OpNop, ir.OpJmp:
			case ir.OpCall:
				for j := range in.Args {
					rw(&in.Args[j])
				}
			case ir.OpStore:
				rw(&in.X)
				rw(&in.Y)
			case ir.OpCopy, ir.OpLoad, ir.OpPrefetch, ir.OpBr, ir.OpRet:
				rw(&in.X)
			default:
				rw(&in.X)
				rw(&in.Y)
			}
		}
	}
	return changed
}

// coalesceCopies rewrites the pattern
//
//	t = op ...   (t single-def, this copy is t's only use, same block)
//	a = copy t
//
// into `a = op ...`, deleting the copy — provided no instruction between the
// two defines or uses a. This collapses the temp+copy sequences the frontend
// emits for assignments to multi-definition variables (loop variables,
// accumulators), exposing the canonical `i = i + c` shape to the induction-
// variable passes.
func coalesceCopies(f *ir.Func) bool {
	defCounts := f.DefCounts()
	useCounts := make([]int, f.NumValues())
	var buf []ir.Value
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				useCounts[u]++
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpCopy {
				continue
			}
			a, tv := in.Dst, in.X
			if a == tv || defCounts[tv] != 1 || useCounts[tv] != 1 {
				continue
			}
			// Find t's definition earlier in this block.
			defIdx := -1
			for j := i - 1; j >= 0; j-- {
				if b.Instrs[j].Def() == tv {
					defIdx = j
					break
				}
			}
			if defIdx < 0 || !b.Instrs[defIdx].Op.HasDst() {
				continue
			}
			// Nothing between may define or use a.
			clear := true
			for j := defIdx + 1; j < i && clear; j++ {
				mid := &b.Instrs[j]
				if mid.Def() == a {
					clear = false
					break
				}
				for _, u := range mid.Uses(buf[:0]) {
					if u == a {
						clear = false
						break
					}
				}
			}
			if !clear {
				continue
			}
			b.Instrs[defIdx].Dst = a
			*in = ir.Instr{Op: ir.OpNop}
			defCounts[tv] = 0
			useCounts[tv] = 0
			changed = true
		}
		if changed {
			// Drop the nops introduced above.
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if b.Instrs[i].Op != ir.OpNop {
					kept = append(kept, b.Instrs[i])
				}
			}
			b.Instrs = kept
		}
	}
	return changed
}

// eliminateDeadCode removes pure instructions whose destination is never
// used anywhere in the function.
func eliminateDeadCode(f *ir.Func) bool {
	used := make([]bool, f.NumValues())
	var buf []ir.Value
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			buf = b.Instrs[i].Uses(buf[:0])
			for _, u := range buf {
				used[u] = true
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op.IsPure() && in.Def() != ir.NoValue && !used[in.Def()] {
				changed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return changed
}

// simplifyCFG folds constant branches, removes empty forwarding blocks, and
// merges straight-line block pairs.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	consts, _ := constValues(f)

	// Fold br on a constant condition into jmp.
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		c, ok := consts[term.X]
		if !ok {
			continue
		}
		keep := b.Succs[0]
		if c == 0 {
			keep = b.Succs[1]
		}
		*term = ir.Instr{Op: ir.OpJmp}
		b.Succs = []*ir.Block{keep}
		changed = true
	}
	if changed {
		f.RecomputePreds()
		f.RemoveUnreachable()
	}

	// Redirect edges that pass through empty jmp-only blocks.
	for _, b := range f.Blocks {
		for si, s := range b.Succs {
			for hops := 0; hops < 8; hops++ {
				if s == f.Entry || len(s.Instrs) != 1 || s.Term() == nil || s.Term().Op != ir.OpJmp || s == b {
					break
				}
				nxt := s.Succs[0]
				if nxt == s {
					break
				}
				b.Succs[si] = nxt
				s = nxt
				changed = true
			}
		}
	}
	f.RecomputePreds()
	f.RemoveUnreachable()

	// Merge b -> c when b ends in jmp, c's only pred is b, and c != entry.
	for {
		merged := false
		for _, b := range f.Blocks {
			term := b.Term()
			if term == nil || term.Op != ir.OpJmp {
				continue
			}
			c := b.Succs[0]
			if c == f.Entry || c == b || len(c.Preds) != 1 {
				continue
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], c.Instrs...)
			b.Succs = c.Succs
			c.Instrs = nil
			c.Succs = nil
			f.RecomputePreds()
			f.RemoveUnreachable()
			merged = true
			changed = true
			break
		}
		if !merged {
			break
		}
	}
	return changed
}

// CleanupProgram runs Cleanup on every function.
func CleanupProgram(p *ir.Program) {
	for _, f := range p.Funcs {
		Cleanup(f)
	}
}
