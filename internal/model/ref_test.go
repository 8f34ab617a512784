package model

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/linalg"
	"repro/internal/par"
)

// fitMARSRef is FitMARS with the pre-incremental forward pass: at every step
// it re-enumerates every candidate, rebuilds its two hinge columns and
// re-runs Gram–Schmidt against the whole basis (pairGain, O(n·|q|) per
// candidate per step). It is the oracle for marsForward:
// TestFitMARSMatchesRef holds the two to the same bits and
// BenchmarkFitMARSForward holds the incremental pass's speedup over it above
// a floor. The backward pass is the production one.
func fitMARSRef(data *Dataset, opt MARSOptions) (*MARSModel, error) {
	n, dim := data.Len(), data.Dim()
	opt = opt.withDefaults(dim, n)

	bases := []Basis{{}} // intercept
	cols := [][]float64{constCol(n)}

	// Orthonormal span Q and current residual for fast candidate scoring.
	var q [][]float64
	r := append([]float64{}, data.Y...)
	pushColumn := func(c []float64) {
		qc := orthogonalize(c, q)
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

	for len(bases) < opt.MaxTerms {
		// Enumerate all (parent, var, knot) candidates in the serial scan
		// order, score them on the worker pool (each gain depends only on
		// the shared read-only q/r state), then pick the first strict
		// maximum — exactly the serial selection, at any worker count.
		type cand struct {
			parent int
			v      int
			t      float64
		}
		var cands []cand
		for pi, parent := range bases {
			if parent.degree() >= opt.MaxDegree {
				continue
			}
			for v := 0; v < dim; v++ {
				if parent.usesVar(v) {
					continue
				}
				for _, t := range knotsFor[v] {
					cands = append(cands, cand{pi, v, t})
				}
			}
		}
		gains := make([]float64, len(cands))
		par.For(len(cands), opt.Workers, func(i int) {
			c := cands[i]
			c1, c2 := hingeColsRef(data, cols[c.parent], c.v, c.t)
			gains[i] = pairGain(c1, c2, q, r)
		})
		best, bestGain := cand{}, 1e-9
		bestI := -1
		for i, g := range gains {
			if g > bestGain {
				best, bestGain, bestI = cands[i], g, i
			}
		}
		if bestI < 0 {
			break
		}
		parent := bases[best.parent]
		pcol := cols[best.parent]
		c1, c2 := hingeColsRef(data, pcol, best.v, best.t)
		b1 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, true})}
		b2 := Basis{Factors: append(append([]Hinge{}, parent.Factors...), Hinge{best.v, best.t, false})}
		bases = append(bases, b1, b2)
		cols = append(cols, c1, c2)
		pushColumn(c1)
		pushColumn(c2)
	}
	return marsBackward(data, opt, bases, cols)
}

func hingeColsRef(data *Dataset, pcol []float64, v int, t float64) ([]float64, []float64) {
	n := data.Len()
	c1 := make([]float64, n)
	c2 := make([]float64, n)
	for i := 0; i < n; i++ {
		if pcol[i] == 0 {
			continue
		}
		d := data.X[i][v] - t
		if d > 0 {
			c1[i] = pcol[i] * d
		} else if d < 0 {
			c2[i] = -pcol[i] * d
		}
	}
	return c1, c2
}

// orthogonalize returns c minus its projection onto the orthonormal set q.
func orthogonalize(c []float64, q [][]float64) []float64 {
	out := append([]float64{}, c...)
	for _, qi := range q {
		p := linalg.Dot(qi, out)
		if p == 0 {
			continue
		}
		for i := range out {
			out[i] -= p * qi[i]
		}
	}
	return out
}

// pairGain scores adding the hinge pair: the squared residual projection
// captured by the two columns after orthogonalization against the current
// span.
func pairGain(c1, c2 []float64, q [][]float64, r []float64) float64 {
	gain := 0.0
	q1 := orthogonalize(c1, q)
	n1 := linalg.Norm2(q1)
	if n1 > 1e-10 {
		for i := range q1 {
			q1[i] /= n1
		}
		p := linalg.Dot(q1, r)
		gain += p * p
	} else {
		q1 = nil
	}
	q2 := orthogonalize(c2, q)
	if q1 != nil {
		p := linalg.Dot(q1, q2)
		for i := range q2 {
			q2[i] -= p * q1[i]
		}
	}
	n2 := linalg.Norm2(q2)
	if n2 > 1e-10 {
		p := linalg.Dot(q2, r) / n2
		gain += p * p
	}
	return gain
}

// refData draws n points over dim variables whose level structure cycles
// through what the design spaces hold — 2-level (whose lower hinge at the
// one knot is identically zero), 3-level and continuous — plus, from four
// variables up, one exact duplicate of a continuous column (its hinge pair
// is already in the span once the original's is: pushColumn's skip) and one
// constant column (no knots). The response has hinges, a product and noise.
func refData(n, dim int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			switch d % 3 {
			case 0:
				x[d] = float64(2*rng.Intn(2) - 1)
			case 1:
				x[d] = 2*rng.Float64() - 1
			default:
				x[d] = float64(rng.Intn(3) - 1)
			}
		}
		if dim >= 4 {
			x[dim-2] = x[1]
			x[dim-1] = 0.5
		}
		xs[i] = x
		ys[i] = 10 + 3*math.Max(0, x[1]) - 2*math.Max(0, -x[1]-0.2) + 2*x[0]*x[2] + x[dim/2] + 0.3*rng.NormFloat64()
	}
	return &Dataset{X: xs, Y: ys}
}

// doptData codes a D-optimal design over the joint space at n points, the
// data the sweeps fit, and puts a response with hinges, products and noise on
// it. Its eleven two-level variables put their only knot at the low level,
// so the (t − x)₊ column of every candidate on them is zero, and a pair won
// on one of them adds a zero basis, whose own candidates are zero throughout.
func doptData(n int, seed int64) *Dataset {
	space := doe.JointSpace()
	rng := rand.New(rand.NewSource(seed))
	des := doe.DOptimal(space, n, rng, doe.DOptions{Expansion: doe.ExpandLinear, MaxSweeps: 8})
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i, p := range des.Points {
		x := space.Code(p)
		xs[i] = x
		ys[i] = 10 + 2*x[24] + 1.5*math.Max(0, -x[18]) + x[1]*x[14] + 0.8*x[6] + 0.5*x[24]*x[21] + 0.2*rng.NormFloat64()
	}
	return &Dataset{X: xs, Y: ys}
}

// fitMARSBudget is FitMARS with the forward pass's cache bound set by the
// test; it also returns how many candidates the pass cached, how many it
// scored from scratch, and the largest nq a cached candidate ended it with.
func fitMARSBudget(data *Dataset, opt MARSOptions, budget int) (m *MARSModel, cached, uncached, maxNQ int, err error) {
	opt = opt.withDefaults(data.Dim(), data.Len())
	bases, cols, cands := marsForward(data, opt, budget)
	for _, c := range cands {
		if c.o != nil {
			cached++
			maxNQ = max(maxNQ, c.nq)
		} else {
			uncached++
		}
	}
	m, err = marsBackward(data, opt, bases, cols)
	return m, cached, uncached, maxNQ, err
}

func sameMARSBits(a, b *MARSModel) error {
	if !reflect.DeepEqual(a.Bases, b.Bases) {
		return fmt.Errorf("bases differ: %d against %d", len(a.Bases), len(b.Bases))
	}
	for i := range a.Coef {
		if math.Float64bits(a.Coef[i]) != math.Float64bits(b.Coef[i]) {
			return fmt.Errorf("coef %d: %v against %v", i, a.Coef[i], b.Coef[i])
		}
	}
	if math.Float64bits(a.GCVScore) != math.Float64bits(b.GCVScore) ||
		math.Float64bits(a.TrainSSE) != math.Float64bits(b.TrainSSE) {
		return fmt.Errorf("GCV %v, SSE %v against GCV %v, SSE %v", a.GCVScore, a.TrainSSE, b.GCVScore, b.TrainSSE)
	}
	return nil
}

// The incremental forward pass performs, per candidate, the projections the
// reference performs, in the same order on the same values; it only stops
// repeating those of earlier steps. So the fitted model must equal the
// reference's bit for bit — at the default cache bound, with no cache at all
// (every candidate scored from its raw hinge pair in scratch), with room for
// exactly one candidate (both paths in one fit), and at any worker count,
// including one that splits the candidates unevenly. At the default bound
// some cached candidate must end a fit with nq ≥ 2: scored at two steps or
// more, and extended from its stored columns in between, not rescored from
// its raw pair.
func TestFitMARSMatchesRef(t *testing.T) {
	type shape struct {
		n, dim int
		opt    MARSOptions
		dopt   bool // doptData instead of refData; dim is the joint space's
	}
	var shapes []shape
	for _, n := range []int{12, 28, 120, 200} {
		for _, dim := range []int{6, 25, 49} {
			// Up to 28 points the default MaxTerms (n − 2) fills the span
			// and the pass runs into its 1e-10 guards; from 120 points six
			// steps keep the reference, which is cubic in steps, affordable.
			opt := MARSOptions{}
			if n >= 120 {
				opt.MaxTerms = 13
			}
			shapes = append(shapes, shape{n, dim, opt, false})
		}
	}
	shapes = append(shapes,
		shape{28, 6, MARSOptions{MaxDegree: 1}, false},
		shape{120, 6, MARSOptions{MaxDegree: 3}, false},
		shape{28, 25, MARSOptions{MaxDegree: 3, MaxKnots: 3}, false},
		shape{120, 25, MARSOptions{MaxTerms: 31}, false},
		shape{28, 25, MARSOptions{}, true},
		shape{56, 25, MARSOptions{}, true},
		shape{56, 25, MARSOptions{MaxDegree: 3}, true},
	)
	maxNQ := 0
	for si, s := range shapes {
		data := refData(s.n, s.dim, int64(100+si))
		if s.dopt {
			data = doptData(s.n, 5)
			checkZeroColumns(t, data, s.opt, s.opt.MaxDegree == 3)
		}
		want, err := fitMARSRef(data, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		for wi, workers := range []int{1, 2, 3, 8} {
			for bi, budget := range []int{marsCacheBytes, 0, 16 * s.n} {
				// The full product on the small shapes, a diagonal on the
				// rest: the three bounds still meet the four counts.
				if s.n*s.dim > 28*25 && wi%3 != bi {
					continue
				}
				opt := s.opt
				opt.Workers = workers
				got, cached, uncached, nq, err := fitMARSBudget(data, opt, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMARSBits(got, want); err != nil {
					t.Fatalf("n=%d dim=%d degree=%d workers=%d budget=%d: %v",
						s.n, s.dim, s.opt.MaxDegree, workers, budget, err)
				}
				if wantCached := min(budget/(16*s.n), cached+uncached); cached != wantCached {
					t.Fatalf("n=%d dim=%d budget=%d: %d candidates cached, want %d", s.n, s.dim, budget, cached, wantCached)
				}
				if budget == marsCacheBytes {
					maxNQ = max(maxNQ, nq)
				}
			}
		}
	}
	t.Logf("largest nq of a cached candidate at the default bound: %d", maxNQ)
	if maxNQ < 2 {
		t.Fatalf("no cached candidate ended a fit with nq ≥ 2 (largest %d): cached columns are not extended", maxNQ)
	}
	// The exported entry point is the default bound.
	data := refData(28, 6, 7)
	want, _ := fitMARSRef(data, MARSOptions{})
	got, err := FitMARS(data, MARSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMARSBits(got, want); err != nil {
		t.Fatal(err)
	}
}

// checkZeroColumns fails unless the forward pass on data took its
// zero-column path: some listed candidate has one zero hinge column, none has
// two, and, when zeroParent is set, a degree-2 basis is zero on every row and
// so lists no candidate of its own.
func checkZeroColumns(t *testing.T, data *Dataset, opt MARSOptions, zeroParent bool) {
	t.Helper()
	opt = opt.withDefaults(data.Dim(), data.Len())
	bases, cols, cands := marsForward(data, opt, marsCacheBytes)
	oneZero := 0
	children := make([]int, len(bases))
	for _, c := range cands {
		if c.z1 && c.z2 {
			t.Fatalf("candidate (%d, %d, %v) listed with both columns zero", c.parent, c.v, c.t)
		}
		if c.z1 || c.z2 {
			oneZero++
		}
		children[c.parent]++
	}
	if oneZero == 0 {
		t.Fatalf("n=%d: no candidate has a zero hinge column", data.Len())
	}
	if !zeroParent {
		return
	}
	for i, b := range bases {
		if b.degree() == 2 && linalg.Norm2(cols[i]) == 0 {
			if children[i] != 0 {
				t.Fatalf("zero basis %d lists %d candidates", i, children[i])
			}
			return
		}
	}
	t.Fatalf("n=%d degree=%d: no degree-2 basis is zero on every row", data.Len(), opt.MaxDegree)
}

// At 234 rows × 49 variables (default options: 99 terms), wider than any
// per-program fit, the cache stays inside its bound and the fit
// equals one that caches nothing. The uncached fit costs what the reference
// does, so -short stops both after 21 terms.
func TestFitMARSCacheBounded(t *testing.T) {
	data := refData(234, 49, 11)
	var opt MARSOptions
	if testing.Short() {
		opt.MaxTerms = 21
	}
	want, _, _, _, err := fitMARSBudget(data, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, cached, uncached, _, err := fitMARSBudget(data, opt, marsCacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	held := cached * 16 * data.Len()
	t.Logf("%d candidates cached in %.1f MB, %d scored from scratch", cached, float64(held)/1e6, uncached)
	if held > marsCacheBytes {
		t.Fatalf("cache holds %d bytes, bound %d", held, marsCacheBytes)
	}
	if err := sameMARSBits(got, want); err != nil {
		t.Fatal(err)
	}
}

// minMARSForwardSpeedup is the floor on BenchmarkFitMARSForward's forward-x.
// It holds on any host because both fits run back to back in one process at
// one worker count, and the ratio is arithmetic that is no longer done: two
// projections per candidate column per step against |q| ≈ 50 of them.
const minMARSForwardSpeedup = 2.0

// BenchmarkFitMARSForward times a MARS fit at the paper's scale (200 points
// × 25 variables) with the reference forward pass and with the incremental
// one, and gates the ratio. It also reports, with no floor, what one serial
// fit on a 28-point D-optimal design (a sweep's training set) costs, and one
// serial FitHybridRBF (MARS trend plus RBF-RT residual) on the same design.
func BenchmarkFitMARSForward(b *testing.B) {
	data := refData(200, 25, 3)
	sweep := doptData(28, 5)
	const sweepFits = 50
	var refT, fastT, sweepT, rbfT time.Duration
	var cached, uncached int
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ref, err := fitMARSRef(data, MARSOptions{})
		refT = time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		var fast *MARSModel
		fast, cached, uncached, _, err = fitMARSBudget(data, MARSOptions{}, marsCacheBytes)
		fastT = time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if err := sameMARSBits(fast, ref); err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		for j := 0; j < sweepFits; j++ {
			if _, err := FitMARS(sweep, MARSOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
		sweepT = time.Since(start) / sweepFits
		start = time.Now()
		for j := 0; j < sweepFits; j++ {
			if _, err := FitHybridRBF(sweep, MARSOptions{Workers: 1}, RBFOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		rbfT = time.Since(start) / sweepFits
	}
	speedup := refT.Seconds() / fastT.Seconds()
	b.ReportMetric(refT.Seconds()*1e3, "ref-ms")
	b.ReportMetric(fastT.Seconds()*1e3, "fast-ms")
	b.ReportMetric(speedup, "forward-x")
	b.ReportMetric(float64(cached), "cands-cached")
	b.ReportMetric(float64(uncached), "cands-from-scratch")
	b.ReportMetric(sweepT.Seconds()*1e6, "sweep-fit-us")
	b.ReportMetric(rbfT.Seconds()*1e6, "sweep-rbf-us")
	if speedup < minMARSForwardSpeedup {
		b.Fatalf("incremental forward pass %.2fx the reference, below floor %.1fx", speedup, minMARSForwardSpeedup)
	}
}
