package ir

// Dominator analysis using the Cooper–Harvey–Kennedy iterative algorithm.

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	fn    *Func
	idom  map[*Block]*Block // entry maps to nil
	order map[*Block]int    // reverse-postorder index
	post  []*Block          // blocks in reverse postorder
}

// ComputeDominators builds the dominator tree of f. Unreachable blocks are
// ignored (callers typically run RemoveUnreachable first).
func ComputeDominators(f *Func) *DomTree {
	// Reverse postorder over the CFG.
	seen := map[*Block]bool{}
	var postorder []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		postorder = append(postorder, b)
	}
	dfs(f.Entry)

	rpo := make([]*Block, len(postorder))
	order := make(map[*Block]int, len(postorder))
	for i := range postorder {
		rpo[i] = postorder[len(postorder)-1-i]
		order[rpo[i]] = i
	}

	idom := map[*Block]*Block{f.Entry: f.Entry}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if _, ok := idom[p]; !ok {
					continue // unprocessed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[f.Entry] = nil
	return &DomTree{fn: f, idom: idom, order: order, post: rpo}
}

// IDom returns the immediate dominator of b (nil for the entry block).
func (d *DomTree) IDom(b *Block) *Block { return d.idom[b] }

// Dominates reports whether a dominates b (every block dominates itself).
func (d *DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = d.idom[b]
	}
	return false
}

// ReversePostorder returns the blocks in reverse postorder.
func (d *DomTree) ReversePostorder() []*Block { return d.post }

// Loop describes one natural loop.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool // includes Header
	Latch  *Block          // one back-edge source (loops may have several; we keep the first)
	Depth  int             // nesting depth, 1 = outermost
	Parent *Loop
}

// Contains reports whether b is inside the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// FindLoops discovers all natural loops of f via back edges in the dominator
// tree, and computes nesting. Returned loops are ordered innermost-first
// (deeper loops before their parents), deterministically.
func FindLoops(f *Func, dom *DomTree) []*Loop {
	var loops []*Loop
	byHeader := map[*Block]*Loop{}
	// Deterministic iteration: reverse postorder.
	for _, b := range dom.ReversePostorder() {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}, Latch: b}
				byHeader[s] = l
				loops = append(loops, l)
			}
			// Collect the natural loop body: all blocks that can reach
			// the latch without passing through the header.
			var stack []*Block
			if !l.Blocks[b] {
				l.Blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !l.Blocks[p] {
						l.Blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Nesting: loop A is nested in B if B contains A's header and A != B.
	for _, a := range loops {
		for _, b := range loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			// Choose the smallest enclosing loop as parent.
			if a.Parent == nil || len(b.Blocks) < len(a.Parent.Blocks) {
				a.Parent = b
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Innermost-first, stable by header ID.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0; j-- {
			a, b := loops[j-1], loops[j]
			if a.Depth > b.Depth || (a.Depth == b.Depth && a.Header.ID <= b.Header.ID) {
				break
			}
			loops[j-1], loops[j] = b, a
		}
	}
	return loops
}

// BlockLoopDepths returns the loop-nesting depth of every block of f: 0 for
// blocks outside any loop, otherwise the depth of the innermost containing
// loop (1 = outermost). Static profile estimation uses it.
func BlockLoopDepths(f *Func, loops []*Loop) map[*Block]int {
	depth := make(map[*Block]int, len(f.Blocks))
	for _, l := range loops {
		for b := range l.Blocks {
			if l.Depth > depth[b] {
				depth[b] = l.Depth
			}
		}
	}
	return depth
}

// EstimateFrequencies sets Block.Freq with a simple static profile: entry
// frequency 1, loops multiply inner frequency by loopWeight, branch
// successors split frequency evenly.
func EstimateFrequencies(f *Func, loops []*Loop) {
	const loopWeight = 10.0
	depth := BlockLoopDepths(f, loops)
	for _, b := range f.Blocks {
		b.Freq = 1
		for i := 0; i < depth[b]; i++ {
			b.Freq *= loopWeight
		}
	}
}
