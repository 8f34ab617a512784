package model

import (
	"math"
	"testing"
)

func TestLogDatasetAndLogModel(t *testing.T) {
	xs := [][]float64{{0}, {1}}
	ys := []float64{math.E, math.E * math.E}
	d, _ := NewDataset(xs, ys)
	ld := LogDataset(d)
	if math.Abs(ld.Y[0]-1) > 1e-12 || math.Abs(ld.Y[1]-2) > 1e-12 {
		t.Fatalf("log transform wrong: %v", ld.Y)
	}
	inner := &LinearModel{Coef: []float64{1, 1}} // 1 + x in log space
	lm := LogModel{Inner: inner}
	if math.Abs(lm.Predict([]float64{1})-math.E*math.E) > 1e-9 {
		t.Fatal("LogModel should exponentiate")
	}
	if lm.Name() != "linear-log" {
		t.Fatalf("name = %q", lm.Name())
	}
}

func TestHybridRBFBeatsTrendAlone(t *testing.T) {
	// Truth: global trend plus a localized bump MARS's hinge products in
	// two variables struggle to express exactly.
	truth := func(x []float64) float64 {
		bump := math.Exp(-4 * (x[0]*x[0] + x[1]*x[1]))
		return 50 + 10*x[0] - 6*x[1] + 25*bump
	}
	train := synth(200, 3, 21, truth, 0.2)
	test := synth(80, 3, 22, truth, 0)

	// Hamstring the trend so the residual network has real work to do.
	weak := MARSOptions{MaxTerms: 3}
	trend, err := FitMARS(train, weak)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := FitHybridRBF(train, weak, RBFOptions{Kernel: Multiquadric})
	if err != nil {
		t.Fatal(err)
	}
	te := TestError(trend, test)
	he := TestError(hybrid, test)
	if he >= te {
		t.Fatalf("hybrid (%v%%) should beat a weak trend alone (%v%%)", he, te)
	}
	if hybrid.Name() != "rbf-rt" {
		t.Fatal("name")
	}
	if len(hybrid.Trend.Coef)+len(hybrid.Residual.W) <= len(trend.Coef) {
		t.Fatal("hybrid should add residual parameters")
	}
}

func TestHybridCapturesGlobalExtrapolation(t *testing.T) {
	// Strong global interaction: a pure local-kernel model cannot
	// extrapolate it; the hybrid's trend must.
	truth := func(x []float64) float64 { return 100 + 30*x[0]*x[1] }
	train := synth(150, 2, 23, truth, 0)
	test := synth(60, 2, 24, truth, 0)
	hybrid, err := FitHybridRBF(train, MARSOptions{}, RBFOptions{Kernel: Multiquadric})
	if err != nil {
		t.Fatal(err)
	}
	if e := TestError(hybrid, test); e > 5 {
		t.Fatalf("hybrid error %v%% on a smooth interaction", e)
	}
}
