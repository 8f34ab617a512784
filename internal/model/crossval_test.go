package model

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/doe"
)

func linFitter(d *Dataset) (Model, error) { return FitLinear(d, doe.ExpandLinear) }

func marsFitter(d *Dataset) (Model, error) { return FitMARS(d, MARSOptions{}) }

func TestCrossValidateOnLinearTruth(t *testing.T) {
	truth := func(x []float64) float64 { return 100 + 5*x[0] - 2*x[1] }
	data := synth(60, 3, 31, truth, 0)
	cv, err := CrossValidate(data, 5, 1, linFitter)
	if err != nil {
		t.Fatal(err)
	}
	if cv > 0.01 {
		t.Fatalf("CV error %v%% on noiseless linear truth", cv)
	}
}

func TestCrossValidateRanksModels(t *testing.T) {
	data := synth(120, 4, 32, nonlinearTruth, 0.3)
	cvLin, err := CrossValidate(data, 5, 1, linFitter)
	if err != nil {
		t.Fatal(err)
	}
	cvMars, err := CrossValidate(data, 5, 1, marsFitter)
	if err != nil {
		t.Fatal(err)
	}
	if cvMars >= cvLin {
		t.Fatalf("MARS CV (%v) should beat linear CV (%v) on hinge truth", cvMars, cvLin)
	}
}

func TestCrossValidateValidation(t *testing.T) {
	data := synth(10, 2, 33, func(x []float64) float64 { return 1 }, 0)
	if _, err := CrossValidate(data, 1, 1, linFitter); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := CrossValidate(data, 11, 1, linFitter); err == nil {
		t.Error("k > n should fail")
	}
	failing := func(*Dataset) (Model, error) { return nil, errors.New("nope") }
	if _, err := CrossValidate(data, 2, 1, failing); err == nil {
		t.Error("all-failing fitter should error")
	}
}

func TestSelectByCV(t *testing.T) {
	data := synth(120, 4, 34, nonlinearTruth, 0.3)
	name, m, scores, err := SelectByCV(data, 5, 1, map[string]func(*Dataset) (Model, error){
		"linear": linFitter,
		"mars":   marsFitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if name != "mars" {
		t.Fatalf("selected %q (scores %v), want mars", name, scores)
	}
	if m == nil || len(scores) != 2 {
		t.Fatal("missing model or scores")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	data := synth(60, 3, 35, nonlinearTruth, 0.5)
	a, _ := CrossValidate(data, 4, 7, marsFitter)
	b, _ := CrossValidate(data, 4, 7, marsFitter)
	if a != b {
		t.Fatal("same seed must give same CV estimate")
	}
}

// On equal CV scores the winner must not follow Go's map order: three names
// bound to one fitter returned a/b/c 149/29/22 times over 200 calls before
// the names were sorted.
func TestSelectByCVTieIsLexicographic(t *testing.T) {
	data := synth(24, 3, 36, nonlinearTruth, 0.3)
	fitters := map[string]func(*Dataset) (Model, error){"c": linFitter, "a": linFitter, "b": linFitter}
	for i := 0; i < 100; i++ {
		name, _, scores, err := SelectByCV(data, 3, 1, fitters)
		if err != nil {
			t.Fatal(err)
		}
		if name != "a" {
			t.Fatalf("call %d selected %q (scores %v), want the first name of the tie", i, name, scores)
		}
	}
}

// A response LogDataset cannot transform is refused by every fitter with an
// error naming the row — not fitted into −Inf coefficients — and inside
// cross-validation that refusal is one more degenerate fold: skipped, and
// the estimate comes from the folds that hold the row out.
func TestNonFiniteDataIsRefused(t *testing.T) {
	data := synth(40, 3, 37, func(x []float64) float64 { return 100 + 5*x[1] }, 0.1)
	data.Y[7] = 0
	logged := LogDataset(data)
	if _, err := FitMARS(logged, MARSOptions{}); err == nil || !strings.Contains(err.Error(), "row 7") {
		t.Errorf("FitMARS on a −Inf response: %v, want an error naming row 7", err)
	}
	if _, err := FitRBF(logged, RBFOptions{}); err == nil || !strings.Contains(err.Error(), "row 7") {
		t.Errorf("FitRBF on a −Inf response: %v, want an error naming row 7", err)
	}
	if _, err := FitLinear(logged, doe.ExpandLinear); err == nil || !strings.Contains(err.Error(), "row 7") {
		t.Errorf("FitLinear on a −Inf response: %v, want an error naming row 7", err)
	}
	data.X[3][2] = math.NaN()
	if _, err := FitMARS(data, MARSOptions{}); err == nil || !strings.Contains(err.Error(), "row 3: coordinate 2") {
		t.Errorf("FitMARS on a NaN coordinate: %v, want an error naming row 3, coordinate 2", err)
	}
	data.X[3][2] = 0

	logMARS := func(d *Dataset) (Model, error) {
		m, err := FitMARS(LogDataset(d), MARSOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		return LogModel{Inner: m}, nil
	}
	serial, err := CrossValidateParallel(data, 4, 1, 1, logMARS)
	if err != nil || math.IsNaN(serial) || math.IsInf(serial, 0) {
		t.Fatalf("CV over a dataset with one zero response: %v, %v; want the held-out fold's estimate", serial, err)
	}
	if parallel, _ := CrossValidateParallel(data, 4, 1, 4, logMARS); parallel != serial {
		t.Fatalf("CV estimate %v at 4 workers, %v at 1", parallel, serial)
	}
}
