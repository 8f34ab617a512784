package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/doe"
	"repro/internal/linalg"
)

// synth generates a dataset from a known function over k coded variables.
func synth(n, k int, seed int64, f func(x []float64) float64, noise float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, k)
		for d := range x {
			// Mix of continuous and ±1 (flag-like) variables.
			if d%3 == 0 {
				x[d] = float64(2*rng.Intn(2) - 1)
			} else {
				x[d] = 2*rng.Float64() - 1
			}
		}
		xs[i] = x
		ys[i] = f(x) + noise*rng.NormFloat64()
	}
	d, _ := NewDataset(xs, ys)
	return d
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := NewDataset([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged points should fail")
	}
	d, err := NewDataset([][]float64{{1, 2}}, []float64{3})
	if err != nil || d.Dim() != 2 || d.Len() != 1 {
		t.Error("valid dataset rejected")
	}
}

func TestLinearRecoversLinearFunction(t *testing.T) {
	truth := func(x []float64) float64 { return 100 + 5*x[0] - 3*x[1] + 2*x[2] }
	train := synth(60, 4, 1, truth, 0)
	m, err := FitLinear(train, doe.ExpandLinear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-100) > 1e-6 || math.Abs(m.Coef[1]-5) > 1e-6 ||
		math.Abs(m.Coef[2]+3) > 1e-6 || math.Abs(m.Coef[4]) > 1e-6 {
		t.Fatalf("coefficients = %v", m.Coef[:5])
	}
	test := synth(30, 4, 2, truth, 0)
	if e := TestError(m, test); e > 1e-6 {
		t.Fatalf("test error %v on noiseless linear truth", e)
	}
}

func TestLinearRecoversInteraction(t *testing.T) {
	truth := func(x []float64) float64 { return 10 + 4*x[0]*x[1] }
	train := synth(80, 3, 3, truth, 0)
	m, err := FitLinear(train, doe.ExpandInteractions)
	if err != nil {
		t.Fatal(err)
	}
	test := synth(40, 3, 4, truth, 0)
	if e := TestError(m, test); e > 1e-6 {
		t.Fatalf("interaction model error %v", e)
	}
	// Main-effects-only model must fail on a pure interaction.
	m0, err := FitLinear(train, doe.ExpandLinear)
	if err != nil {
		t.Fatal(err)
	}
	if e := TestError(m0, test); e < 5 {
		t.Fatalf("main-effects model should be poor on interaction: %v%%", e)
	}
}

// TestLinearPredictInPlace holds Predict, which adds the terms against Coef
// without building the row, to the bits of the definition it replaces —
// linalg.Dot over doe.ExpandCoded's row — for both expansions, and to zero
// allocations. The last probe makes every term −0: Dot's sum starts at +0 and
// stays there, and a sum started at the intercept would come out −0.
func TestLinearPredictInPlace(t *testing.T) {
	const k, probes = 25, 10000
	for _, e := range []doe.Expansion{doe.ExpandLinear, doe.ExpandInteractions} {
		rng := rand.New(rand.NewSource(int64(e) + 7))
		m := &LinearModel{Expansion: e, Coef: make([]float64, e.NumTerms(k))}
		x := make([]float64, k)
		for p := 0; p < probes; p++ {
			for i := range m.Coef {
				m.Coef[i] = rng.NormFloat64() * math.Exp(6*rng.NormFloat64())
			}
			for i := range x {
				x[i] = 2*rng.Float64() - 1
			}
			if p == probes-1 {
				for i := range m.Coef {
					m.Coef[i] = math.Copysign(0, -1)
				}
				for i := range x {
					x[i] = 0.5
				}
			}
			want := linalg.Dot(doe.ExpandCoded(x, e), m.Coef)
			if got := m.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("expansion %d, probe %d: Predict = %x, Dot over the expanded row = %x",
					e, p, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if n := testing.AllocsPerRun(100, func() { m.Predict(x) }); n != 0 {
			t.Errorf("expansion %d: Predict allocates %v times per call, want 0", e, n)
		}
	}
}

// nonlinearTruth mimics Figure 3's response: improvement then degradation
// along x0, gated by x1.
func nonlinearTruth(x []float64) float64 {
	v := 100 - 20*x[0]
	if x[0] > 0.3 {
		v += 60 * (x[0] - 0.3)
	}
	return v + 10*x[1] + 5*x[0]*x[1]
}

func TestMARSBeatsLinearOnNonlinearTruth(t *testing.T) {
	train := synth(120, 4, 5, nonlinearTruth, 0.5)
	test := synth(60, 4, 6, nonlinearTruth, 0)

	lin, err := FitLinear(train, doe.ExpandInteractions)
	if err != nil {
		t.Fatal(err)
	}
	mars, err := FitMARS(train, MARSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	le, me := TestError(lin, test), TestError(mars, test)
	if me >= le {
		t.Fatalf("MARS (%v%%) should beat linear (%v%%) on hinge-shaped truth", me, le)
	}
	if me > 3 {
		t.Fatalf("MARS error %v%% too high on its home turf", me)
	}
	t.Logf("linear=%.2f%% mars=%.2f%% (terms=%d)", le, me, mars.NumParams())
}

func TestMARSPruningControlsComplexity(t *testing.T) {
	truth := func(x []float64) float64 { return 50 + 10*x[0] }
	train := synth(60, 6, 7, truth, 1)
	m, err := FitMARS(train, MARSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// GCV pruning should keep the model small for a simple truth.
	if m.NumParams() > 12 {
		t.Fatalf("pruned model still has %d terms", m.NumParams())
	}
	if math.IsInf(m.GCVScore, 1) || m.GCVScore <= 0 {
		t.Fatalf("bad GCV: %v", m.GCVScore)
	}
}

func TestRBFFitsSmoothSurface(t *testing.T) {
	truth := func(x []float64) float64 {
		return 200 + 40*math.Tanh(2*x[0]) + 20*x[1]*x[1] + 8*x[0]*x[1]
	}
	train := synth(150, 3, 8, truth, 0.5)
	test := synth(60, 3, 9, truth, 0)
	m, err := FitRBF(train, RBFOptions{Kernel: Multiquadric})
	if err != nil {
		t.Fatal(err)
	}
	if e := TestError(m, test); e > 4 {
		t.Fatalf("RBF error %v%% too high", e)
	}
	if len(m.Centers) < 2 || len(m.W) != len(m.Centers)+1 {
		t.Fatalf("degenerate network: %d centers %d weights", len(m.Centers), len(m.W))
	}
}

func TestRBFKernels(t *testing.T) {
	if Gaussian.eval(0, 1) != 1 || Multiquadric.eval(0, 1) != 1 {
		t.Error("kernels must be 1 at distance 0")
	}
	if Gaussian.eval(10, 1) >= Gaussian.eval(1, 1) {
		t.Error("gaussian must decay")
	}
	if Multiquadric.eval(10, 1) >= Multiquadric.eval(1, 1) {
		t.Error("inverse multiquadric must decay")
	}
	if Gaussian.String() != "gaussian" || Multiquadric.String() != "multiquadric" {
		t.Error("kernel names")
	}
}

func TestBICAndGCV(t *testing.T) {
	// More parameters at equal SSE must score worse.
	if BIC(100, 50, 5) >= BIC(100, 50, 10) {
		t.Error("BIC should penalize parameters")
	}
	if !math.IsInf(BIC(100, 10, 10), 1) {
		t.Error("BIC with p <= gamma should be +Inf")
	}
	if GCV(100, 50, 5) >= GCV(100, 50, 20) {
		t.Error("GCV should penalize complexity")
	}
	if !math.IsInf(GCV(100, 10, 10), 1) {
		t.Error("GCV with c >= p should be +Inf")
	}
}

func TestEffectsOnKnownLinearModel(t *testing.T) {
	truth := func(x []float64) float64 { return 10 + 6*x[0] - 4*x[1] + 3*x[0]*x[1] }
	train := synth(100, 3, 10, truth, 0)
	m, err := FitLinear(train, doe.ExpandInteractions)
	if err != nil {
		t.Fatal(err)
	}
	space := &doe.Space{Vars: []doe.Var{
		{Name: "a", Kind: doe.Flag, Low: 0, High: 1, Levels: 2},
		{Name: "b", Kind: doe.Flag, Low: 0, High: 1, Levels: 2},
		{Name: "c", Kind: doe.Flag, Low: 0, High: 1, Levels: 2},
	}}
	// Use a centered background so interaction terms don't shift the main
	// effects (the estimator averages over the supplied points).
	center := [][]float64{{0, 0, 0}}
	if e := MainEffect(m, center, 0); math.Abs(e-6) > 1e-6 {
		t.Errorf("main effect a = %v, want 6", e)
	}
	if e := InteractionEffect(m, center, 0, 1); math.Abs(e-3) > 1e-6 {
		t.Errorf("interaction a*b = %v, want 3", e)
	}
	top := TopEffects(m, space, center, 3)
	if top[0].Label() != "a" || math.Abs(top[0].Value-6) > 1e-6 {
		t.Errorf("top effect = %+v", top[0])
	}
	found := false
	for _, e := range top {
		if e.Label() == "a * b" {
			found = true
		}
	}
	if !found {
		t.Errorf("a*b should rank in top 3: %+v", top)
	}
}

func TestPropertyLinearInterpolatesTraining(t *testing.T) {
	// With more samples than terms and zero noise, training error ≈ 0 for
	// responses that truly are linear.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c0, c1, c2 := rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10
		truth := func(x []float64) float64 { return c0 + c1*x[0] + c2*x[1] }
		train := synth(30, 2, seed, truth, 0)
		m, err := FitLinear(train, doe.ExpandLinear)
		if err != nil {
			return false
		}
		return m.TrainSSE < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModelsAreDeterministic(t *testing.T) {
	train := synth(80, 4, 11, nonlinearTruth, 0.3)
	x := []float64{0.2, -0.5, 1, -1}
	m1, _ := FitMARS(train, MARSOptions{})
	m2, _ := FitMARS(train, MARSOptions{})
	if m1.Predict(x) != m2.Predict(x) {
		t.Error("MARS must be deterministic")
	}
	r1, _ := FitRBF(train, RBFOptions{})
	r2, _ := FitRBF(train, RBFOptions{})
	if r1.Predict(x) != r2.Predict(x) {
		t.Error("RBF must be deterministic")
	}
}

func TestMARSBasisHelpers(t *testing.T) {
	b := Basis{Factors: []Hinge{{Var: 2, T: 0.5, Pos: true}, {Var: 0, T: -0.5, Pos: false}}}
	if b.degree() != 2 || !b.usesVar(2) || b.usesVar(1) {
		t.Error("basis predicates")
	}
	vs := b.Vars()
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 2 {
		t.Errorf("Vars = %v", vs)
	}
	x := []float64{-1, 0, 1}
	// (x2-0.5)+ = 0.5 ; (-0.5 - x0)+ = 0.5
	if got := b.eval(x); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("eval = %v, want 0.25", got)
	}
}
