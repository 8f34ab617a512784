package model

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/par"
)

// Hinge is one spline factor: (x_v − t)₊ when Pos, (t − x_v)₊ otherwise.
type Hinge struct {
	Var int
	T   float64
	Pos bool
}

func (h Hinge) eval(x []float64) float64 {
	d := x[h.Var] - h.T
	if !h.Pos {
		d = -d
	}
	if d > 0 {
		return d
	}
	return 0
}

// Basis is a product of hinges (empty product = the intercept).
type Basis struct {
	Factors []Hinge
}

func (b Basis) eval(x []float64) float64 {
	v := 1.0
	for _, h := range b.Factors {
		v *= h.eval(x)
		if v == 0 {
			return 0
		}
	}
	return v
}

// degree returns the interaction order of the basis.
func (b Basis) degree() int { return len(b.Factors) }

func (b Basis) usesVar(v int) bool {
	for _, h := range b.Factors {
		if h.Var == v {
			return true
		}
	}
	return false
}

// MARSModel is a fitted multivariate adaptive regression splines model.
type MARSModel struct {
	Bases    []Basis
	Coef     []float64
	GCVScore float64
	TrainSSE float64
}

// MARSOptions tunes the fit.
type MARSOptions struct {
	MaxTerms  int // forward-pass basis budget (default 2*dim+1, capped by samples)
	MaxDegree int // maximum interaction order (default 2, as in the paper)
	MaxKnots  int // candidate knots per variable (default 8 quantiles)
	Penalty   float64
	// Workers bounds the forward-pass candidate-scoring concurrency
	// (0 = GOMAXPROCS, 1 = serial). The fitted model is bit-for-bit
	// identical for every value: candidate gains are computed
	// independently and the winner is selected in enumeration order.
	Workers int
}

func (o MARSOptions) withDefaults(dim, n int) MARSOptions {
	if o.MaxTerms == 0 {
		o.MaxTerms = 2*dim + 1
	}
	if o.MaxTerms > n-2 {
		o.MaxTerms = n - 2
	}
	if o.MaxTerms < 3 {
		o.MaxTerms = 3
	}
	if o.MaxDegree == 0 {
		o.MaxDegree = 2
	}
	if o.MaxKnots == 0 {
		o.MaxKnots = 8
	}
	if o.Penalty == 0 {
		o.Penalty = 3
	}
	return o
}

// FitMARS runs Friedman's two-phase algorithm: a greedy forward pass adding
// hinge-pair bases that most reduce residual error, then a backward pruning
// pass deleting bases while the GCV criterion improves. A non-finite
// coordinate or response is an error naming its row.
func FitMARS(data *Dataset, opt MARSOptions) (*MARSModel, error) {
	if err := checkFinite(data); err != nil {
		return nil, fmt.Errorf("model: mars fit: %w", err)
	}
	opt = opt.withDefaults(data.Dim(), data.Len())
	bases, cols, _ := marsForward(data, opt, marsCacheBytes)
	return marsBackward(data, opt, bases, cols)
}

// marsCacheBytes bounds what one forward pass retains of its candidates'
// orthogonalised hinge pairs, a slot of 16·n bytes each (up to 140 MB
// unbounded at 234 rows in 49 variables). First come, first cached — the
// oldest are rescored most often; a candidate past the bound is scored by the
// same function from its raw hinge pair in worker scratch, to the same bits.
const marsCacheBytes = 64 << 20

// marsCand is one (parent, variable, knot) candidate of the forward pass.
// z1 and z2 mark a hinge column, (x_v − t)₊ and (t − x_v)₊, that is zero on
// every row. A zero column stays zero under every projection (its dot with
// any direction is +0, which deflate skips) and adds exactly 0 to the gain,
// so it is neither stored, deflated nor scored; a candidate whose columns are
// both zero scores 0, can never win, and is not listed at all.
// o holds its nonzero hinge columns (the first, then the second when both
// are) orthogonalised against q[:nq] and left un-normalised, so that a later
// step continues the same Gram–Schmidt over q[nq:]. o is nil for a candidate
// past the cache bound, which starts over from its raw pair every time.
type marsCand struct {
	parent, v int
	t         float64
	z1, z2    bool
	o         []float64
	nq        int
}

// marsState is what candidate scoring reads of the forward pass: the data by
// variable, the bases' columns with the rows each is nonzero on, the
// orthonormal span q and the residual r. Scoring only reads it.
type marsState struct {
	xcol [][]float64 // xcol[v][i] is data.X[i][v]
	cols [][]float64
	nz   [][]int32 // nz[b] lists the rows where cols[b] is nonzero
	q    [][]float64
	r    []float64
}

// hinge fills c1 and c2 with candidate (parent, v, t)'s hinge pair.
func (s *marsState) hinge(c1, c2 []float64, parent, v int, t float64) (z1, z2 bool) {
	return hingeCols(c1, c2, s.xcol[v], s.cols[parent], s.nz[parent], t)
}

// score returns the squared residual projection the candidate's hinge pair
// captures beyond the orthonormal span q. The pair is projected off q[nq:]
// only — q[:nq] is already out of it, by the operations a projection from
// scratch performs in the same order, so the gain has the same bits. The
// loops below fuse sums that linalg.Dot and linalg.Norm2 would take one at a
// time; each keeps its own accumulator and index order. w is 3·n values of
// scratch the caller owns.
func (c *marsCand) score(s *marsState, nq int, w []float64) float64 {
	n := len(s.r)
	o := c.o
	if o == nil {
		o, nq = w[n:], 0
		s.hinge(o[:n], o[n:], c.parent, c.v, c.t)
	}
	var o1, o2 []float64
	if !c.z1 {
		o1 = o[:n]
	}
	if !c.z2 {
		o2 = o[len(o)-n:]
	}
	return pairTail(o1, o2, deflate(o1, o2, s.q[nq:]), s.r, w)
}

// pairTail is the gain of a hinge pair already deflated off q, given n1, the
// norm of o1: it normalises o1 into scratch s1 (in w, which a pair with both
// columns needs) and takes s2 = o2 − (s1·o2)·s1 element by element as its
// sums need it, so the stored pair stays extendable.
func pairTail(o1, o2 []float64, n1 float64, r, w []float64) float64 {
	gain := 0.0
	var p2 float64
	var s1 []float64
	if n1 > 1e-10 {
		var pr float64
		if o2 == nil {
			for i, x := range o1 {
				pr += x / n1 * r[i]
			}
		} else {
			s1 = w[:len(o1)]
			for i, x := range o1 {
				s := x / n1
				s1[i] = s
				pr += s * r[i]
				p2 += s * o2[i]
			}
		}
		gain += pr * pr
	}
	var nn, pr float64
	for i, x := range o2 {
		if s1 != nil {
			x -= p2 * s1[i]
		}
		nn += x * x
		pr += x * r[i]
	}
	if n2 := math.Sqrt(nn); n2 > 1e-10 {
		p := pr / n2
		gain += p * p
	}
	return gain
}

// marsWork is the memory a forward pass works in. It goes back to a pool
// when the pass ends, so the next fit reuses it: a fit the size of an
// earlier one allocates nothing for its candidates' columns.
type marsWork struct {
	// arena holds cached candidates' columns. A full block is replaced by a
	// larger one, never moved, so the columns already in it stay put.
	arena          []float64
	xs, raw, gains []float64
	scratch        []float64
}

var marsWorkPool = sync.Pool{New: func() any { return new(marsWork) }}

// marsArenaBlock is the smallest arena block, in float64s (256 KB).
const marsArenaBlock = 32 << 10

// alloc returns m values at the end of the arena. When the current block is
// full it starts a new one, twice as large but no larger than limit, the
// values the pass may still cache: the blocks one pass allocates stay within
// its cache bound.
func (wk *marsWork) alloc(m, limit int) []float64 {
	if cap(wk.arena)-len(wk.arena) < m {
		size := min(max(2*cap(wk.arena), marsArenaBlock), limit)
		wk.arena = make([]float64, 0, max(size, m))
	}
	k := len(wk.arena)
	wk.arena = wk.arena[:k+m]
	return wk.arena[k : k+m : k+m]
}

// reuse returns buf with length m, reallocated only when it is too short.
func reuse[T any](buf []T, m int) []T {
	return slices.Grow(buf[:0], m)[:m]
}

// marsForward is the greedy forward pass: it returns the bases, their
// columns over the data and the candidates it scored, caching up to budget
// bytes of them (marsCacheBytes outside tests). The candidates' cached
// columns live in pooled memory that the next fit may overwrite.
func marsForward(data *Dataset, opt MARSOptions, budget int) ([]Basis, [][]float64, []marsCand) {
	n, dim := data.Len(), data.Dim()
	wk := marsWorkPool.Get().(*marsWork)
	defer marsWorkPool.Put(wk)
	wk.arena = wk.arena[:0]

	bases := []Basis{{}} // intercept
	s := &marsState{xcol: make([][]float64, dim), r: append([]float64{}, data.Y...)}
	wk.xs = reuse(wk.xs, dim*n)
	for v := range s.xcol {
		xv := wk.xs[v*n : (v+1)*n : (v+1)*n]
		for i, x := range data.X {
			xv[i] = x[v]
		}
		s.xcol[v] = xv
	}
	addCol := func(c []float64) {
		var nz []int32
		for i, x := range c {
			if x != 0 {
				nz = append(nz, int32(i))
			}
		}
		s.cols = append(s.cols, c)
		s.nz = append(s.nz, nz)
	}
	addCol(constCol(n))

	// Orthonormal span Q and current residual for fast candidate scoring.
	pushColumn := func(c []float64) {
		qc := append([]float64{}, c...)
		nrm := deflate(qc, nil, s.q)
		if nrm < 1e-10 {
			return
		}
		for i := range qc {
			qc[i] /= nrm
		}
		proj := linalg.Dot(qc, s.r)
		for i := range s.r {
			s.r[i] -= proj * qc[i]
		}
		s.q = append(s.q, qc)
	}
	pushColumn(s.cols[0])

	knotsFor := knotTable(data, opt.MaxKnots)
	perParent := 0 // candidates a parent can list at most
	for _, ks := range knotsFor {
		perParent += len(ks)
	}
	workers := par.Workers(opt.Workers)
	wk.scratch = reuse(wk.scratch, workers*3*n)
	wk.raw = reuse(wk.raw, 2*n)
	raw := wk.raw

	// The candidate list is append-only: a listed (parent, var, knot)
	// candidate never leaves, and new parents join bases at the end, so
	// appending their candidates keeps the list in the serial scan order the
	// winner selection below relies on. bases[:listed] have theirs in it.
	var cands []marsCand
	listed := 0
	for len(bases) < opt.MaxTerms {
		for ; listed < len(bases); listed++ {
			if bases[listed].degree() >= opt.MaxDegree {
				continue
			}
			cands = slices.Grow(cands, perParent)
			for v := 0; v < dim; v++ {
				if bases[listed].usesVar(v) {
					continue
				}
				for _, t := range knotsFor[v] {
					c := marsCand{parent: listed, v: v, t: t}
					if budget < 16*n {
						c.z1, c.z2 = s.hinge(raw[:n], raw[n:], listed, v, t)
						if !c.z1 || !c.z2 {
							cands = append(cands, c)
						}
						continue
					}
					o := wk.alloc(2*n, budget/8)
					c.z1, c.z2 = s.hinge(o[:n], o[n:], listed, v, t)
					switch {
					case c.z1 && c.z2:
						wk.arena = wk.arena[:len(wk.arena)-2*n]
						continue
					case c.z1:
						copy(o, o[n:])
						fallthrough
					case c.z2:
						wk.arena = wk.arena[:len(wk.arena)-n]
						o = o[:n:n]
					}
					c.o = o
					budget -= 16 * n
					cands = append(cands, c)
				}
			}
		}
		// Score on the worker pool — a gain depends only on the candidate's
		// own columns and the shared read-only state — then pick the first
		// strict maximum: the serial selection at any worker count. Worker w
		// takes every workers-th candidate, which spreads the new (costliest)
		// ones at the tail, and extends each cached one's columns from its nq
		// to the whole span.
		gains := reuse(wk.gains, len(cands))
		wk.gains = gains
		par.For(workers, workers, func(w int) {
			ws := wk.scratch[w*3*n : (w+1)*3*n]
			for i := w; i < len(cands); i += workers {
				c := &cands[i]
				gains[i] = c.score(s, c.nq, ws)
				c.nq = len(s.q)
			}
		})
		bestI, bestGain := -1, 1e-9
		for i, g := range gains {
			if g > bestGain {
				bestI, bestGain = i, g
			}
		}
		if bestI < 0 {
			break
		}
		best := cands[bestI]
		parent := bases[best.parent]
		c1, c2 := make([]float64, n), make([]float64, n)
		s.hinge(c1, c2, best.parent, best.v, best.t)
		b1 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, true})}
		b2 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, false})}
		bases = append(bases, b1, b2)
		addCol(c1)
		addCol(c2)
		pushColumn(c1)
		pushColumn(c2)
	}
	return bases, s.cols, cands
}

// marsBackward prunes the forward pass's bases by GCV and refits the winners.
func marsBackward(data *Dataset, opt MARSOptions, bases []Basis, cols [][]float64) (*MARSModel, error) {
	n := data.Len()
	// Backward pruning by GCV, on a cached column Gram instead of one full
	// least-squares refit per (level, dropped term). The Gram G = XᵀX and
	// moment vector Xᵀy over all forward-pass columns are computed once
	// (O(n·p²)); each pruning level then needs a single O(m³) Cholesky of
	// the kept submatrix, after which every drop candidate is scored in
	// O(1) by the classic drop-one identity
	//
	//	SSE(S \ {j}) = SSE(S) + βⱼ² / (G_S⁻¹)ⱼⱼ,
	//
	// equal (in exact arithmetic) to the SSE of a full refit without j.
	p := len(cols)
	gram := linalg.NewMatrix(p, p)
	par.For(p, opt.Workers, func(i int) {
		gi := gram.Row(i)
		for j := 0; j <= i; j++ {
			gi[j] = linalg.Dot(cols[i], cols[j])
		}
	})
	for i := 0; i < p; i++ { // mirror the lower triangle
		for j := i + 1; j < p; j++ {
			gram.Set(i, j, gram.At(j, i))
		}
	}
	moment := make([]float64, p)
	for i := 0; i < p; i++ {
		moment[i] = linalg.Dot(cols[i], data.Y)
	}
	yty := linalg.Dot(data.Y, data.Y)

	// solveSub factors the kept submatrix and returns the normal-equation
	// coefficients, the diagonal of the inverse, and the training SSE. A
	// tiny ridge (matching linalg.LeastSquares' rank-deficiency fallback)
	// rescues exactly collinear hinge pairs.
	solveSub := func(idx []int) (beta, invDiag []float64, sse float64, ok bool) {
		m := len(idx)
		gs := linalg.NewMatrix(m, m)
		bs := make([]float64, m)
		for a, ia := range idx {
			bs[a] = moment[ia]
			ga := gs.Row(a)
			gia := gram.Row(ia)
			for b, ib := range idx {
				ga[b] = gia[ib]
			}
		}
		ch, err := linalg.FactorCholesky(gs)
		if err != nil {
			for a := 0; a < m; a++ {
				gs.Set(a, a, gs.At(a, a)+1e-8)
			}
			if ch, err = linalg.FactorCholesky(gs); err != nil {
				return nil, nil, 0, false
			}
		}
		if beta, err = ch.Solve(bs); err != nil {
			return nil, nil, 0, false
		}
		sse = yty - linalg.Dot(beta, bs)
		if sse < 0 {
			sse = 0
		}
		return beta, ch.InverseDiag(), sse, true
	}
	effParams := func(terms int) float64 {
		return float64(terms) + opt.Penalty*float64(terms-1)/2
	}

	cur := make([]int, p)
	for i := range cur {
		cur[i] = i
	}
	bestKeep := append([]int{}, cur...)
	bestGCV := math.Inf(1)
	beta, invDiag, sse, ok := solveSub(cur)
	if ok {
		bestGCV = GCV(sse, n, effParams(len(cur)))
	}
	for ok && len(cur) > 1 {
		// Score every single-term drop from the shared factorization;
		// never drop the intercept (position 0).
		bestJ, bestLocalGCV := -1, math.Inf(1)
		for j := 1; j < len(cur); j++ {
			d := invDiag[j]
			if d <= 0 {
				continue
			}
			g := GCV(sse+beta[j]*beta[j]/d, n, effParams(len(cur)-1))
			if g < bestLocalGCV {
				bestJ, bestLocalGCV = j, g
			}
		}
		if bestJ < 0 {
			break
		}
		cur = append(cur[:bestJ], cur[bestJ+1:]...)
		if beta, invDiag, sse, ok = solveSub(cur); !ok {
			break
		}
		if g := GCV(sse, n, effParams(len(cur))); g < bestGCV {
			bestGCV = g
			bestKeep = append(bestKeep[:0], cur...)
		}
	}

	// Final refit of the winning subset by QR, the same solver the
	// per-trial path used, so reported coefficients keep its accuracy.
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(bestKeep))
		for j, bi := range bestKeep {
			row[j] = cols[bi][i]
		}
		rows[i] = row
	}
	a := linalg.FromRows(rows)
	coef, err := linalg.LeastSquares(a, data.Y)
	if err != nil {
		return nil, fmt.Errorf("model: mars fit: %w", err)
	}
	finalSSE := linalg.SSE(a.MulVec(coef), data.Y)
	m := &MARSModel{GCVScore: GCV(finalSSE, n, effParams(len(bestKeep))), TrainSSE: finalSSE}
	for _, bi := range bestKeep {
		m.Bases = append(m.Bases, bases[bi])
	}
	m.Coef = coef
	return m, nil
}

// Predict implements Model.
func (m *MARSModel) Predict(x []float64) float64 {
	s := 0.0
	for i, b := range m.Bases {
		s += m.Coef[i] * b.eval(x)
	}
	return s
}

// Name implements Model.
func (m *MARSModel) Name() string { return "mars" }

// ReadsVar reports whether any basis has a hinge on variable v.
func (m *MARSModel) ReadsVar(v int) bool {
	for _, b := range m.Bases {
		if b.usesVar(v) {
			return true
		}
	}
	return false
}

func constCol(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

// knotTable returns candidate knots per variable: up to maxKnots quantiles
// of the distinct observed values, excluding the maximum (a hinge there is
// identically zero on the data).
func knotTable(data *Dataset, maxKnots int) [][]float64 {
	dim := data.Dim()
	out := make([][]float64, dim)
	vals := make([]float64, data.Len())
	for v := 0; v < dim; v++ {
		for i, x := range data.X {
			vals[i] = x[v]
		}
		sort.Float64s(vals)
		uniq := vals[:0]
		for i, x := range vals {
			if i == 0 || x != vals[i-1] {
				uniq = append(uniq, x)
			}
		}
		if len(uniq) <= 1 {
			continue
		}
		cands := uniq[:len(uniq)-1]
		if len(cands) <= maxKnots {
			out[v] = append([]float64{}, cands...)
			continue
		}
		for i := 0; i < maxKnots; i++ {
			out[v] = append(out[v], cands[i*len(cands)/maxKnots])
		}
	}
	return out
}

// hingeCols fills c1 and c2 with the hinge pair pcol·(x_v − t)₊ and
// pcol·(t − x_v)₊ over the data, given xv, variable v by row, and nz, the
// rows where pcol is nonzero (both columns are zero on every other row), and
// reports which of the two is zero on every row.
func hingeCols(c1, c2, xv, pcol []float64, nz []int32, t float64) (z1, z2 bool) {
	clear(c1)
	clear(c2)
	z1, z2 = true, true
	for _, i := range nz {
		p := pcol[i]
		if d := xv[i] - t; d > 0 {
			c1[i] = p * d
			z1 = z1 && c1[i] == 0
		} else if d < 0 {
			c2[i] = -p * d
			z2 = z2 && c2[i] == 0
		}
	}
	return z1, z2
}

// deflate subtracts from a and b, in place and in turn, their projections
// onto each of the orthonormal directions qs (modified Gram–Schmidt), reading
// each direction once for both; a nil column is left out (not both). It
// returns linalg.Norm2(a) of the result, summed in the last pass that updates
// a when there is one.
func deflate(a, b []float64, qs [][]float64) float64 {
	aa, fresh := 0.0, false
	for _, qi := range qs {
		var pa, pb float64
		switch {
		case a == nil:
			pb = linalg.Dot(qi, b)
		case b == nil:
			pa = linalg.Dot(qi, a)
		default:
			for i, x := range qi {
				pa += x * a[i]
				pb += x * b[i]
			}
		}
		fresh = false
		switch {
		case pa != 0 && pb != 0:
			aa, fresh = 0, true
			for i, x := range qi {
				y := a[i] - pa*x
				a[i] = y
				aa += y * y
				b[i] -= pb * x
			}
		case pa != 0:
			aa, fresh = 0, true
			for i, x := range qi {
				y := a[i] - pa*x
				a[i] = y
				aa += y * y
			}
		case pb != 0:
			for i, x := range qi {
				b[i] -= pb * x
			}
		}
	}
	if !fresh {
		return linalg.Norm2(a)
	}
	return math.Sqrt(aa)
}
