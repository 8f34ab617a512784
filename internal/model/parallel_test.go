package model

import (
	"testing"
)

// Candidate gains are computed into per-index slots and the winning knot is
// chosen by a serial in-order scan, so a parallel MARS fit must select the
// same bases with the same coefficients as a serial one — bitwise.
func TestFitMARSParallelMatchesSerial(t *testing.T) {
	train := synth(140, 5, 41, nonlinearTruth, 0.4)
	serial, err := FitMARS(train, MARSOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel, err := FitMARS(train, MARSOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel.Bases) != len(serial.Bases) {
			t.Fatalf("workers=%d: %d bases, serial %d", w, len(parallel.Bases), len(serial.Bases))
		}
		for i := range serial.Bases {
			a, b := serial.Bases[i], parallel.Bases[i]
			if len(a.Factors) != len(b.Factors) {
				t.Fatalf("workers=%d: basis %d shape differs", w, i)
			}
			for f := range a.Factors {
				if a.Factors[f] != b.Factors[f] {
					t.Fatalf("workers=%d: basis %d factor %d differs", w, i, f)
				}
			}
			if serial.Coef[i] != parallel.Coef[i] {
				t.Fatalf("workers=%d: coef %d: %v != %v", w, i, parallel.Coef[i], serial.Coef[i])
			}
		}
		if serial.GCVScore != parallel.GCVScore {
			t.Fatalf("workers=%d: GCV %v != %v", w, parallel.GCVScore, serial.GCVScore)
		}
	}
}

// Each fold accumulates its own partial error and partials are combined in
// fold order, so the CV estimate is bit-for-bit worker-count independent.
func TestCrossValidateParallelMatchesSerial(t *testing.T) {
	data := synth(90, 4, 43, nonlinearTruth, 0.5)
	fit := func(d *Dataset) (Model, error) { return FitMARS(d, MARSOptions{Workers: 1}) }
	serial, err := CrossValidateParallel(data, 5, 7, 1, fit)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel, err := CrossValidateParallel(data, 5, 7, w, fit)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Fatalf("workers=%d: CV %v != serial %v", w, parallel, serial)
		}
	}
	// The wrapper is the serial special case.
	wrapped, err := CrossValidate(data, 5, 7, fit)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped != serial {
		t.Fatalf("CrossValidate %v != CrossValidateParallel(..., 1, ...) %v", wrapped, serial)
	}
}
