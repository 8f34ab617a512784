package doe

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Expansion selects the regression model whose information matrix the
// D-optimality criterion targets.
type Expansion uint8

const (
	// ExpandLinear uses intercept + main effects.
	ExpandLinear Expansion = iota
	// ExpandInteractions adds all two-factor interaction terms, matching
	// the linear models of the paper (Equation 2).
	ExpandInteractions
)

// NumTerms returns the length of an expanded row for k variables.
func (e Expansion) NumTerms(k int) int {
	if e == ExpandInteractions {
		return 1 + k + k*(k-1)/2
	}
	return 1 + k
}

// ExpandCoded maps coded coordinates to a regression row: intercept, main
// effects, and (for ExpandInteractions) products x_i*x_j with i < j.
func ExpandCoded(coded []float64, e Expansion) []float64 {
	k := len(coded)
	row := make([]float64, 0, e.NumTerms(k))
	row = append(row, 1)
	row = append(row, coded...)
	if e == ExpandInteractions {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				row = append(row, coded[i]*coded[j])
			}
		}
	}
	return row
}

// Design is a selected set of design points with their expanded rows.
type Design struct {
	Space     *Space
	Points    []Point
	Expansion Expansion
}

// DOptions tunes the Fedorov exchange search.
type DOptions struct {
	// Candidates is the LHS candidate-pool size (default 10x the design
	// size). Values smaller than the requested design size are clamped up
	// to it: the selection needs at least n distinct candidates.
	Candidates int
	// MaxSweeps is the number of exchange sweeps (default 20). The zero
	// value means "default", so it cannot request no sweeps; pass a
	// negative value for an explicit zero (the initial random selection
	// is returned unimproved).
	MaxSweeps int
	Expansion Expansion
}

func (o DOptions) withDefaults(n, fixed int) DOptions {
	if o.Candidates == 0 {
		o.Candidates = 10 * (n + fixed)
	}
	if o.Candidates < n {
		o.Candidates = n
	}
	switch {
	case o.MaxSweeps == 0:
		o.MaxSweeps = 20
	case o.MaxSweeps < 0:
		o.MaxSweeps = 0
	}
	return o
}

// DOptimal selects an n-point D-optimal design from a candidate pool using
// Fedorov's exchange algorithm with Sherman–Morrison dispersion updates.
// Candidates are drawn by Latin hypercube sampling from the space; pass a
// seeded rng for reproducibility.
//
// The exchange loop is incremental: every candidate's variance d(x) = xᵀDx
// is cached and updated in O(k) per swap, so a sweep costs O(n·Nc·k + k³)
// instead of the O(n·Nc·k²) of the textbook loop (DOptimalRef, the test
// oracle in ref_test.go).
func DOptimal(space *Space, n int, rng *rand.Rand, opt DOptions) *Design {
	return dOptimal(space, nil, n, rng, opt)
}

// AugmentDOptimal extends an existing design with nAdd additional D-optimal
// points, leaving the existing points fixed — the extensibility property the
// paper highlights for iterative refinement.
func AugmentDOptimal(space *Space, existing []Point, nAdd int, rng *rand.Rand, opt DOptions) *Design {
	return dOptimal(space, existing, nAdd, rng, opt)
}

// exchangeState is the shared setup of the incremental Fedorov loop and its
// test oracle: candidate pool, expanded rows, and the initial selection.
type exchangeState struct {
	cands    []Point
	crows    [][]float64
	frows    [][]float64
	k        int
	sel      []int
	inDesign []bool
}

func newExchangeState(space *Space, fixed []Point, n int, rng *rand.Rand, opt DOptions) *exchangeState {
	cands := space.LatinHypercube(opt.Candidates, rng)
	st := &exchangeState{
		cands: cands,
		crows: make([][]float64, len(cands)),
		frows: make([][]float64, len(fixed)),
		k:     opt.Expansion.NumTerms(space.NumVars()),
	}
	for i, p := range cands {
		st.crows[i] = ExpandCoded(space.Code(p), opt.Expansion)
	}
	for i, p := range fixed {
		st.frows[i] = ExpandCoded(space.Code(p), opt.Expansion)
	}
	// Initial selection: first n of a random permutation.
	st.sel = rng.Perm(len(cands))[:n]
	st.inDesign = make([]bool, len(cands))
	for _, ci := range st.sel {
		st.inDesign[ci] = true
	}
	return st
}

// computeD returns the dispersion matrix D = (XᵀX + εI)⁻¹ over the fixed
// and currently selected rows.
func (st *exchangeState) computeD() *linalg.Matrix {
	k := st.k
	g := linalg.NewMatrix(k, k)
	addOuter := func(row []float64) {
		for i := 0; i < k; i++ {
			if row[i] == 0 {
				continue
			}
			gi := g.Row(i)
			for j := 0; j < k; j++ {
				gi[j] += row[i] * row[j]
			}
		}
	}
	for _, r := range st.frows {
		addOuter(r)
	}
	for _, ci := range st.sel {
		addOuter(st.crows[ci])
	}
	for i := 0; i < k; i++ {
		g.Set(i, i, g.At(i, i)+1e-6)
	}
	inv, err := linalg.Inverse(g)
	if err != nil {
		// ε-regularized matrix should always invert; fall back to
		// stronger ridge if numerical trouble appears.
		for i := 0; i < k; i++ {
			g.Set(i, i, g.At(i, i)+1e-3)
		}
		inv, _ = linalg.Inverse(g)
	}
	return inv
}

func (st *exchangeState) design(space *Space, fixed []Point, opt DOptions) *Design {
	pts := make([]Point, len(st.sel))
	for i, ci := range st.sel {
		pts[i] = st.cands[ci]
	}
	all := append(append([]Point{}, fixed...), pts...)
	return &Design{Space: space, Points: all, Expansion: opt.Expansion}
}

func quad(d *linalg.Matrix, x, y []float64, k int) float64 {
	// xᵀ D y
	s := 0.0
	for i := 0; i < k; i++ {
		if x[i] == 0 {
			continue
		}
		di := d.Row(i)
		t := 0.0
		for j := 0; j < k; j++ {
			t += di[j] * y[j]
		}
		s += x[i] * t
	}
	return s
}

// quad4 returns xᵀDx for four rows in one pass over D's rows. Each form
// skips the rows its own x is zero on and sums in quad's order, so each has
// quad's bits.
func quad4(d *linalg.Matrix, x0, x1, x2, x3 []float64, k int) (q0, q1, q2, q3 float64) {
	for i := 0; i < k; i++ {
		a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		t0, t1, t2, t3 := linalg.Dot4(d.Row(i)[:k], x0, x1, x2, x3)
		if a0 != 0 {
			q0 += a0 * t0
		}
		if a1 != 0 {
			q1 += a1 * t1
		}
		if a2 != 0 {
			q2 += a2 * t2
		}
		if a3 != 0 {
			q3 += a3 * t3
		}
	}
	return
}

// dotRows sets out[i] = Dot(rows[i], u) for every row, four rows per pass
// over u.
func dotRows(rows [][]float64, u, out []float64) {
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = linalg.Dot4(u, rows[i], rows[i+1], rows[i+2], rows[i+3])
	}
	for ; i < len(rows); i++ {
		out[i] = linalg.Dot(rows[i], u)
	}
}

func dOptimal(space *Space, fixed []Point, n int, rng *rand.Rand, opt DOptions) *Design {
	opt = opt.withDefaults(n, len(fixed))
	st := newExchangeState(space, fixed, n, rng, opt)
	k, crows, cands := st.k, st.crows, st.cands

	// Per-candidate variances d(x) = xᵀDx, kept current across swaps so the
	// inner scan is O(k) per candidate instead of O(k²).
	dvals := make([]float64, len(cands))
	var d *linalg.Matrix
	drows := make([][]float64, k)
	refresh := func() {
		d = st.computeD()
		for i := range drows {
			drows[i] = d.Row(i)
		}
		ci := 0
		for ; ci+4 <= len(cands); ci += 4 {
			dvals[ci], dvals[ci+1], dvals[ci+2], dvals[ci+3] = quad4(d, crows[ci], crows[ci+1], crows[ci+2], crows[ci+3], k)
		}
		for ; ci < len(cands); ci++ {
			dvals[ci] = quad(d, crows[ci], crows[ci], k)
		}
	}

	u := make([]float64, k)          // scratch: D·x of the row being swapped in/out
	w := make([]float64, len(cands)) // scratch: yᵀDx for every candidate y
	// applyUpdate folds row x into D by an in-place Sherman–Morrison
	// rank-one update (sign +1 adds the row, −1 removes it) and refreshes
	// every cached variance in O(k) each:
	//
	//	D' = D − (sign/denom)·(Dx)(Dx)ᵀ,  denom = 1 + sign·xᵀDx
	//	d'(y) = d(y) − (sign/denom)·(yᵀDx)²
	//
	// Returns false on a degenerate denominator (caller recomputes from
	// scratch).
	applyUpdate := func(x []float64, sign float64) bool {
		dotRows(drows, x, u)
		denom := 1 + sign*linalg.Dot(x, u)
		if math.Abs(denom) < 1e-12 {
			return false
		}
		scale := sign / denom
		for i, di := range drows {
			if u[i] == 0 {
				continue
			}
			s := scale * u[i]
			for j := 0; j < k; j++ {
				di[j] -= s * u[j]
			}
		}
		dotRows(crows, u, w)
		for ci, wc := range w {
			dvals[ci] -= scale * wc * wc
		}
		return true
	}

	for sweep := 0; sweep < opt.MaxSweeps; sweep++ {
		refresh() // fresh each sweep: bounds SM drift
		improved := false
		for si, out := range st.sel {
			xj := crows[out]
			dotRows(drows, xj, u)
			dj := dvals[out]
			dotRows(crows, u, w)
			bestDelta, bestC := 1e-9, -1
			for ci, dxj := range w {
				if st.inDesign[ci] {
					continue
				}
				dx := dvals[ci]
				if delta := dx - (dx*dj - dxj*dxj) - dj; delta > bestDelta {
					bestDelta, bestC = delta, ci
				}
			}
			if bestC < 0 {
				continue
			}
			// Swap: add bestC, remove out; update D and the cached
			// variances in place.
			ok := applyUpdate(crows[bestC], +1) && applyUpdate(xj, -1)
			st.inDesign[out] = false
			st.inDesign[bestC] = true
			st.sel[si] = bestC
			improved = true
			if !ok {
				refresh() // degenerate update: rebuild D for the new selection
			}
		}
		if !improved {
			break
		}
	}
	return st.design(space, fixed, opt)
}
