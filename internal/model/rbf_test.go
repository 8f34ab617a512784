package model

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bestSplitRef is bestSplit with sort.Slice, and pairs and prefix sums
// allocated per variable: the oracle for sortPairs and the reused buffers.
func bestSplitRef(data *Dataset, idx []int, minLeaf int) (int, float64, bool) {
	bestV, bestT, bestSSE, found := 0, 0.0, math.Inf(1), false
	for v := 0; v < data.Dim(); v++ {
		pairs := make([]splitPair, len(idx))
		for i, ix := range idx {
			pairs[i] = splitPair{data.X[ix][v], data.Y[ix]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].x < pairs[b].x })
		n := len(pairs)
		sum, sum2 := make([]float64, n+1), make([]float64, n+1)
		for i, p := range pairs {
			sum[i+1] = sum[i] + p.y
			sum2[i+1] = sum2[i] + p.y*p.y
		}
		sseRange := func(a, b int) float64 {
			c := float64(b - a)
			if c == 0 {
				return 0
			}
			s := sum[b] - sum[a]
			return (sum2[b] - sum2[a]) - s*s/c
		}
		for i := minLeaf; i <= n-minLeaf; i++ {
			if pairs[i-1].x == pairs[i].x {
				continue
			}
			if sse := sseRange(0, i) + sseRange(i, n); sse < bestSSE {
				bestSSE, bestV, bestT, found = sse, v, (pairs[i-1].x+pairs[i].x)/2, true
			}
		}
	}
	return bestV, bestT, found
}

// tieHeavyPairs draws n pairs whose x take at most levels values, so most
// sort keys tie and only the algorithm decides their order.
func tieHeavyPairs(rng *rand.Rand, n, levels int) []splitPair {
	pairs := make([]splitPair, n)
	for i := range pairs {
		pairs[i] = splitPair{float64(rng.Intn(levels)) / 2, rng.NormFloat64()}
	}
	return pairs
}

// sortPairs must leave pairs in sort.Slice's permutation, ties included:
// bestSplit's prefix sums over tied rows depend on the order.
func TestSortPairsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		pairs := tieHeavyPairs(rng, rng.Intn(200), 1+rng.Intn(8))
		want := slices.Clone(pairs)
		sort.Slice(want, func(a, b int) bool { return want[a].x < want[b].x })
		sortPairs(pairs)
		if !slices.Equal(pairs, want) {
			t.Fatalf("trial %d: sortPairs order differs from sort.Slice's", trial)
		}
	}
}

// bestSplit, with its reused buffers across variables and nodes, chooses the
// (v, t) of the sort.Slice version on random tie-heavy nodes.
func TestBestSplitMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n, dim := 4+rng.Intn(60), 1+rng.Intn(6)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		levels := 2 + rng.Intn(4)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = float64(rng.Intn(levels))
			}
			ys[i] = float64(rng.Intn(5)) + rng.NormFloat64()
		}
		data := &Dataset{X: xs, Y: ys}
		sc := newSplitScratch(n)
		for node := 0; node < 3; node++ {
			idx := rng.Perm(n)[:1+rng.Intn(n)]
			minLeaf := 1 + rng.Intn(4)
			v, thr, ok := bestSplit(data, idx, minLeaf, sc)
			wv, wthr, wok := bestSplitRef(data, idx, minLeaf)
			if v != wv || math.Float64bits(thr) != math.Float64bits(wthr) || ok != wok {
				t.Fatalf("trial %d node %d: split (%d, %v, %v), sort.Slice's (%d, %v, %v)", trial, node, v, thr, ok, wv, wthr, wok)
			}
		}
	}
}
