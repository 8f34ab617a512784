package model

import (
	"fmt"
	"math"
	"sort"

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

// Vars returns the sorted set of variables the basis depends on.
func (b Basis) Vars() []int {
	var vs []int
	for _, h := range b.Factors {
		vs = append(vs, h.Var)
	}
	sort.Ints(vs)
	return vs
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
// orthogonalised hinge pairs, 16·n bytes each (up to 140 MB unbounded at the
// cross-program shape). First come, first cached — the oldest are rescored
// most often; a candidate past the bound is scored by the same function from
// its raw hinge pair in worker scratch, to the same bits.
const marsCacheBytes = 64 << 20

// marsCand is one (parent, variable, knot) candidate of the forward pass.
// o holds its two hinge columns (o[:n] and o[n:]) orthogonalised against
// q[:nq] and left un-normalised, so that a later step continues the same
// Gram–Schmidt over q[nq:]. o is nil for a candidate past the cache bound,
// which starts over from its raw pair every time.
type marsCand struct {
	parent, v int
	t         float64
	o         []float64
	nq        int
}

// score returns the squared residual projection the candidate's hinge pair
// captures beyond the orthonormal span q. The pair is projected off q[c.nq:]
// only — q[:c.nq] is already out of it, by the operations a projection from
// scratch performs in the same order, so the gain has the same bits. w is
// 4·n values of scratch the caller owns.
func (c *marsCand) score(data *Dataset, pcol []float64, q [][]float64, r, w []float64) float64 {
	n := len(r)
	o, from := c.o, c.nq
	if o == nil {
		o, from = w[2*n:], 0
	}
	c.nq = len(q)
	o1, o2 := o[:n], o[n:]
	if from == 0 {
		hingeCols(o1, o2, data, pcol, c.v, c.t)
	}
	deflate(o1, q[from:])
	deflate(o2, q[from:])

	// Normalise and deflate in scratch: the stored pair stays extendable.
	gain := 0.0
	s2 := o2
	if n1 := linalg.Norm2(o1); n1 > 1e-10 {
		s1 := w[:n]
		for i, x := range o1 {
			s1[i] = x / n1
		}
		p := linalg.Dot(s1, r)
		gain += p * p
		p = linalg.Dot(s1, o2)
		s2 = w[n : 2*n]
		for i, x := range o2 {
			s2[i] = x - p*s1[i]
		}
	}
	if n2 := linalg.Norm2(s2); n2 > 1e-10 {
		p := linalg.Dot(s2, r) / n2
		gain += p * p
	}
	return gain
}

// marsForward is the greedy forward pass: it returns the bases, their
// columns over the data and the candidates it scored, caching up to budget
// bytes of them (marsCacheBytes outside tests).
func marsForward(data *Dataset, opt MARSOptions, budget int) ([]Basis, [][]float64, []marsCand) {
	n, dim := data.Len(), data.Dim()
	bases := []Basis{{}} // intercept
	cols := [][]float64{constCol(n)}

	// Orthonormal span Q and current residual for fast candidate scoring.
	var q [][]float64
	r := append([]float64{}, data.Y...)
	pushColumn := func(c []float64) {
		qc := append([]float64{}, c...)
		deflate(qc, q)
		nrm := linalg.Norm2(qc)
		if nrm < 1e-10 {
			return
		}
		for i := range qc {
			qc[i] /= nrm
		}
		proj := linalg.Dot(qc, r)
		for i := range r {
			r[i] -= proj * qc[i]
		}
		q = append(q, qc)
	}
	pushColumn(cols[0])

	knotsFor := knotTable(data, opt.MaxKnots)
	workers := par.Workers(opt.Workers)
	scratch := make([]float64, workers*4*n)

	// The candidate list is append-only: a (parent, var, knot) candidate
	// never leaves, and new parents join bases at the end, so appending
	// their candidates keeps the list in the serial scan order the winner
	// selection below relies on. bases[:listed] have theirs in it.
	var cands []marsCand
	listed := 0
	for len(bases) < opt.MaxTerms {
		for ; listed < len(bases); listed++ {
			if bases[listed].degree() >= opt.MaxDegree {
				continue
			}
			for v := 0; v < dim; v++ {
				if bases[listed].usesVar(v) {
					continue
				}
				for _, t := range knotsFor[v] {
					c := marsCand{parent: listed, v: v, t: t}
					if budget >= 16*n {
						budget -= 16 * n
						c.o = make([]float64, 2*n)
					}
					cands = append(cands, c)
				}
			}
		}
		// Score on the worker pool — a gain depends only on the candidate's
		// own columns and the shared read-only q/r — then pick the first
		// strict maximum: the serial selection at any worker count. Worker w
		// takes every workers-th candidate, which spreads the new (costliest)
		// ones at the tail.
		gains := make([]float64, len(cands))
		par.For(workers, workers, func(w int) {
			ws := scratch[w*4*n : (w+1)*4*n]
			for i := w; i < len(cands); i += workers {
				c := &cands[i]
				gains[i] = c.score(data, cols[c.parent], q, r, ws)
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
		hingeCols(c1, c2, data, cols[best.parent], best.v, best.t)
		b1 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, true})}
		b2 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, false})}
		bases = append(bases, b1, b2)
		cols = append(cols, c1, c2)
		pushColumn(c1)
		pushColumn(c2)
	}
	return bases, cols, cands
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

// NumParams returns the number of basis coefficients.
func (m *MARSModel) NumParams() int { return len(m.Coef) }

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
	for v := 0; v < dim; v++ {
		vals := make([]float64, data.Len())
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
// pcol·(t − x_v)₊ over the data.
func hingeCols(c1, c2 []float64, data *Dataset, pcol []float64, v int, t float64) {
	for i, p := range pcol {
		c1[i], c2[i] = 0, 0
		if p == 0 {
			continue
		}
		if d := data.X[i][v] - t; d > 0 {
			c1[i] = p * d
		} else if d < 0 {
			c2[i] = -p * d
		}
	}
}

// deflate subtracts from c, in place and in turn, its projection onto each
// of the orthonormal directions qs (modified Gram–Schmidt).
func deflate(c []float64, qs [][]float64) {
	for _, qi := range qs {
		p := linalg.Dot(qi, c)
		if p == 0 {
			continue
		}
		for i := range c {
			c[i] -= p * qi[i]
		}
	}
}
