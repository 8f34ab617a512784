package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
)

// RBFKernel selects the radial basis function.
type RBFKernel uint8

const (
	// Gaussian is exp(−d²/2σ²).
	Gaussian RBFKernel = iota
	// Multiquadric is the inverse multiquadric 1/√(1 + d²/2σ²), the kernel
	// the paper found most accurate.
	Multiquadric
)

func (k RBFKernel) String() string {
	if k == Gaussian {
		return "gaussian"
	}
	return "multiquadric"
}

func (k RBFKernel) eval(d2, sigma2 float64) float64 {
	z := d2 / (2 * sigma2)
	if k == Gaussian {
		return math.Exp(-z)
	}
	return 1 / math.Sqrt(1+z)
}

// RBFModel is a fitted radial basis function network.
type RBFModel struct {
	Kernel   RBFKernel
	Centers  [][]float64
	Radii    []float64 // σ per neuron
	W        []float64 // W[0] is the bias, W[1+i] weights neuron i
	BICScore float64
	TrainSSE float64
}

// RBFOptions tunes the fit.
type RBFOptions struct {
	Kernel RBFKernel
	// LeafSizes are the regression-tree minimum leaf sizes tried; the
	// network with the best BIC wins. Default {4, 8, 16}.
	LeafSizes []int
}

// radiusScale multiplies the nearest-center distance to set each neuron's
// radius.
const radiusScale = 2

func (o RBFOptions) withDefaults() RBFOptions {
	if len(o.LeafSizes) == 0 {
		o.LeafSizes = []int{4, 8, 16}
	}
	return o
}

// FitRBF trains an RBF network: a regression tree partitions the design
// space into regions of roughly uniform response, the training point nearest
// each leaf centroid becomes a neuron center (Orr's regression-tree method),
// radii derive from inter-center spacing, output weights come from a
// penalized least-squares solve, and the BIC criterion (paper Equation 9)
// selects among tree granularities to avoid overfitting. A non-finite
// coordinate or response is an error naming its row.
func FitRBF(data *Dataset, opt RBFOptions) (*RBFModel, error) {
	if err := checkFinite(data); err != nil {
		return nil, fmt.Errorf("model: rbf fit: %w", err)
	}
	opt = opt.withDefaults()
	var best *RBFModel
	for _, leaf := range opt.LeafSizes {
		centers := treeCenters(data, leaf)
		if len(centers) == 0 {
			continue
		}
		m, err := fitRBFWithCenters(data, centers, opt)
		if err != nil {
			continue
		}
		if best == nil || m.BICScore < best.BICScore {
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("model: rbf fit failed for all leaf sizes")
	}
	return best, nil
}

func fitRBFWithCenters(data *Dataset, centers [][]float64, opt RBFOptions) (*RBFModel, error) {
	n := data.Len()
	m := &RBFModel{Kernel: opt.Kernel, Centers: centers}
	m.Radii = radiiFor(centers)

	rows := make([][]float64, n)
	for i, x := range data.X {
		row := make([]float64, 1+len(centers))
		row[0] = 1
		for c, ctr := range centers {
			row[1+c] = m.Kernel.eval(linalg.Dist2(x, ctr), m.Radii[c]*m.Radii[c])
		}
		rows[i] = row
	}
	a := linalg.FromRows(rows)
	// Mild ridge keeps nearly-coincident neurons from blowing up weights.
	w, err := linalg.RidgeLeastSquares(a, data.Y, 1e-6)
	if err != nil {
		return nil, err
	}
	m.W = w
	m.TrainSSE = linalg.SSE(a.MulVec(w), data.Y)
	m.BICScore = BIC(m.TrainSSE, n, len(w))
	return m, nil
}

// Predict implements Model.
func (m *RBFModel) Predict(x []float64) float64 {
	s := m.W[0]
	for c, ctr := range m.Centers {
		s += m.W[1+c] * m.Kernel.eval(linalg.Dist2(x, ctr), m.Radii[c]*m.Radii[c])
	}
	return s
}

// Name implements Model.
func (m *RBFModel) Name() string { return "rbf-rt" }

// radiiFor sets each center's σ to radiusScale × its nearest-neighbor
// distance (falling back to 1 for a single center).
func radiiFor(centers [][]float64) []float64 {
	radii := make([]float64, len(centers))
	for i := range centers {
		nearest := math.Inf(1)
		for j := range centers {
			if i == j {
				continue
			}
			if d := linalg.Dist2(centers[i], centers[j]); d < nearest {
				nearest = d
			}
		}
		if math.IsInf(nearest, 1) || nearest == 0 {
			radii[i] = 1
		} else {
			radii[i] = radiusScale * math.Sqrt(nearest)
		}
		if radii[i] < 1e-3 {
			radii[i] = 1e-3
		}
	}
	return radii
}

// treeCenters grows a CART-style regression tree (SSE-minimizing axis splits)
// until leaves shrink to minLeaf, then returns the training point closest to
// each leaf centroid.
func treeCenters(data *Dataset, minLeaf int) [][]float64 {
	var leaves [][]int
	sc := newSplitScratch(data.Len())
	var split func(idx []int)
	split = func(idx []int) {
		if len(idx) < 2*minLeaf {
			leaves = append(leaves, idx)
			return
		}
		v, thresh, ok := bestSplit(data, idx, minLeaf, sc)
		if !ok {
			leaves = append(leaves, idx)
			return
		}
		var left, right []int
		for _, i := range idx {
			if data.X[i][v] <= thresh {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) < minLeaf || len(right) < minLeaf {
			leaves = append(leaves, idx)
			return
		}
		split(left)
		split(right)
	}
	all := make([]int, data.Len())
	for i := range all {
		all[i] = i
	}
	split(all)

	dim := data.Dim()
	var centers [][]float64
	for _, leaf := range leaves {
		centroid := make([]float64, dim)
		for _, i := range leaf {
			for d, x := range data.X[i] {
				centroid[d] += x
			}
		}
		for d := range centroid {
			centroid[d] /= float64(len(leaf))
		}
		bestI, bestD := leaf[0], math.Inf(1)
		for _, i := range leaf {
			if d := linalg.Dist2(data.X[i], centroid); d < bestD {
				bestI, bestD = i, d
			}
		}
		centers = append(centers, data.X[bestI])
	}
	return centers
}

// splitPair is one row of a tree node on one variable.
type splitPair struct {
	x, y float64
}

// splitScratch is bestSplit's working memory, sized for the whole dataset
// once per tree and reused by every node and variable.
type splitScratch struct {
	pairs     []splitPair
	sum, sum2 []float64
}

func newSplitScratch(n int) *splitScratch {
	return &splitScratch{make([]splitPair, n), make([]float64, n+1), make([]float64, n+1)}
}

// sortPairs orders pairs by x. slices.SortFunc runs the same generated
// pdqsort as sort.Slice and consults its comparison only as cmp(a, b) < 0,
// which here is a.x < b.x, sort.Slice's less: pairs end in sort.Slice's
// permutation, ties included — and bestSplit's prefix sums over tied rows
// depend on it.
func sortPairs(pairs []splitPair) {
	slices.SortFunc(pairs, func(a, b splitPair) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
}

// bestSplit finds the axis-aligned split minimizing total child SSE.
func bestSplit(data *Dataset, idx []int, minLeaf int, sc *splitScratch) (int, float64, bool) {
	dim := data.Dim()
	bestV, bestT, bestSSE, found := 0, 0.0, math.Inf(1), false

	n := len(idx)
	pairs, sum, sum2 := sc.pairs[:n], sc.sum[:n+1], sc.sum2[:n+1]
	// Prefix sums for O(1) SSE of [a, b).
	sseRange := func(a, b int) float64 {
		c := float64(b - a)
		if c == 0 {
			return 0
		}
		s := sum[b] - sum[a]
		return (sum2[b] - sum2[a]) - s*s/c
	}
	for v := 0; v < dim; v++ {
		for i, ix := range idx {
			pairs[i] = splitPair{data.X[ix][v], data.Y[ix]}
		}
		sortPairs(pairs)
		for i, p := range pairs {
			sum[i+1] = sum[i] + p.y
			sum2[i+1] = sum2[i] + p.y*p.y
		}
		for i := minLeaf; i <= n-minLeaf; i++ {
			if pairs[i-1].x == pairs[i].x {
				continue // can't split between equal values
			}
			sse := sseRange(0, i) + sseRange(i, n)
			if sse < bestSSE {
				bestSSE = sse
				bestV = v
				bestT = (pairs[i-1].x + pairs[i].x) / 2
				found = true
			}
		}
	}
	return bestV, bestT, found
}
