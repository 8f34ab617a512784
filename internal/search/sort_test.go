package search

import (
	"math/rand"
	"testing"
)

// sortedByFitness must order ascending and keep index order on ties — the
// contract the elitism step relied on with the old stable insertion sort.
func TestSortedByFitnessStableOnTies(t *testing.T) {
	fit := []float64{3, 1, 2, 1, 3, 1}
	got := sortedByFitness(fit)
	want := []int{1, 3, 5, 2, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Cross-check against a reference insertion sort on random data.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		f := make([]float64, 30)
		for i := range f {
			f[i] = float64(rng.Intn(5)) // plenty of ties
		}
		ref := insertionSortedByFitness(f)
		got := sortedByFitness(f)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: %v != reference %v (fit %v)", trial, got, ref, f)
			}
		}
	}
}

// insertionSortedByFitness is the O(n²) stable sort sortedByFitness replaced,
// kept as the test oracle.
func insertionSortedByFitness(fit []float64) []int {
	idx := make([]int, len(fit))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && fit[idx[j]] < fit[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
