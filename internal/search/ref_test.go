package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/doe"
	"repro/internal/model"
)

// optimizeRef is the GA loop OptimizeCtx replaced: it rebuilds a variable's
// level grid on every mutation, clamps frozen genes from the map, allocates
// each generation's population and codes it afresh. It is the oracle for
// OptimizeCtx: TestOptimizeMatchesRef holds the two to the same Result and
// the same Progress stream, bit for bit.
func optimizeRef(p Problem, opt GAOptions, rng *rand.Rand) *Result {
	opt = opt.withDefaults()
	k := p.Space.NumVars()

	clamp := func(pt doe.Point) {
		for i, v := range p.Frozen {
			pt[i] = v
		}
	}
	newRandom := func() doe.Point {
		pt := p.Space.RandomPoint(rng)
		clamp(pt)
		return pt
	}
	evals := 0
	evalInto := func(pop []doe.Point, fit []float64) {
		coded := make([][]float64, len(pop))
		for i, pt := range pop {
			coded[i] = p.Space.Code(pt)
		}
		copy(fit, model.PredictAll(p.Model, coded))
		evals += len(pop)
	}

	pop := make([]doe.Point, opt.Population)
	fit := make([]float64, opt.Population)
	for i := range pop {
		pop[i] = newRandom()
	}
	evalInto(pop, fit)

	bestI := argmin(fit)
	best := append(doe.Point{}, pop[bestI]...)
	bestFit := fit[bestI]
	report := func(gen int) {
		if opt.Progress != nil {
			opt.Progress(gen, append(doe.Point{}, best...), bestFit)
		}
	}
	report(0)

	tournament := func() doe.Point {
		wi := rng.Intn(len(pop))
		for t := 1; t < tournamentSize; t++ {
			c := rng.Intn(len(pop))
			if fit[c] < fit[wi] {
				wi = c
			}
		}
		return pop[wi]
	}

	for gen := 0; gen < opt.Generations; gen++ {
		next := make([]doe.Point, 0, opt.Population)
		order := sortedByFitness(fit)
		for e := 0; e < elite && e < len(order); e++ {
			next = append(next, append(doe.Point{}, pop[order[e]]...))
		}
		for len(next) < opt.Population {
			a, b := tournament(), tournament()
			child := make(doe.Point, k)
			for g := 0; g < k; g++ {
				if rng.Float64() < crossRate {
					child[g] = b[g]
				} else {
					child[g] = a[g]
				}
				if rng.Float64() < mutRate {
					levels := p.Space.Vars[g].LevelValues()
					child[g] = levels[rng.Intn(len(levels))]
				}
			}
			clamp(child)
			next = append(next, child)
		}
		pop = next
		evalInto(pop, fit)
		for i := range pop {
			if fit[i] < bestFit {
				bestFit = fit[i]
				best = append(doe.Point{}, pop[i]...)
			}
		}
		report(gen + 1)
	}
	return &Result{Point: best, Predicted: bestFit, Evals: evals}
}

// progressStep is one Progress callback's arguments.
type progressStep struct {
	gen  int
	best doe.Point
	pred float64
}

// hybridModel fits the log-response hybrid RBF-RT model on a synthetic
// joint-space response, the kind of surrogate the paper's search reads.
func hybridModel(t *testing.T) model.Model {
	t.Helper()
	space := doe.JointSpace()
	rng := rand.New(rand.NewSource(41))
	pts := space.LatinHypercube(60, rng)
	xs := make([][]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		x := space.Code(p)
		xs[i] = x
		v := 1000 - 200*x[0] + 100*x[1] + 50*x[0]*x[1] + 80*x[14]*x[14] - 40*x[20]
		if x[2] > 0.3 {
			v += 600 * (x[2] - 0.3)
		}
		ys[i] = v + 5*rng.NormFloat64()
	}
	data, err := model.NewDataset(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := model.FitHybridRBF(model.LogDataset(data), model.MARSOptions{}, model.RBFOptions{Kernel: model.Multiquadric})
	if err != nil {
		t.Fatal(err)
	}
	return model.LogModel{Inner: hy}
}

// OptimizeCtx breeds in place from the space's level tables and scores on
// the calling goroutine, but draws its randomness in optimizeRef's order: the
// result and every Progress step must be the reference loop's, bit for bit.
func TestOptimizeMatchesRef(t *testing.T) {
	small := smallSpace()
	joint := doe.JointSpace()
	march := map[int]int64{}
	for i, v := range doe.FromConfig(doe.ToConfig(joint.RandomPoint(rand.New(rand.NewSource(3))))) {
		march[doe.NumCompilerVars+i] = v
	}
	cases := []struct {
		name string
		prob Problem
		opt  GAOptions
	}{
		{"func", Problem{Space: small, Model: funcModel{func(x []float64) float64 {
			return 100 - 5*x[0] + 7*x[1] - 3*x[2] + 4*x[3]*x[3]
		}}}, GAOptions{Population: 16, Generations: 20}},
		{"func-frozen", Problem{Space: small, Model: funcModel{func(x []float64) float64 {
			return x[0]*x[2] + x[1] - x[3]
		}}, Frozen: map[int]int64{0: 1, 2: 7}}, GAOptions{Population: 9, Generations: 15}},
		{"func-tiny", Problem{Space: small, Model: funcModel{func(x []float64) float64 {
			return x[2] + x[3]
		}}}, GAOptions{Population: 1, Generations: 4}},
		{"hybrid", Problem{Space: joint, Model: hybridModel(t)}, GAOptions{Population: 24, Generations: 12}},
		{"hybrid-frozen", Problem{Space: joint, Model: hybridModel(t), Frozen: march}, GAOptions{Population: 24, Generations: 12}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 6; seed++ {
			var got, want []progressStep
			record := func(steps *[]progressStep) func(int, doe.Point, float64) {
				return func(gen int, best doe.Point, pred float64) {
					*steps = append(*steps, progressStep{gen, best, pred})
				}
			}
			opt := tc.opt
			opt.Progress = record(&want)
			ref := optimizeRef(tc.prob, opt, rand.New(rand.NewSource(seed)))
			opt.Progress = record(&got)
			res, err := OptimizeCtx(context.Background(), tc.prob, opt, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(res, ref) {
				t.Fatalf("%s seed %d: result %v (%v, %d evals), reference %v (%v, %d evals)",
					tc.name, seed, res.Point, res.Predicted, res.Evals, ref.Point, ref.Predicted, ref.Evals)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d progress steps, reference %d", tc.name, seed, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.gen != w.gen || !samePoint(g.best, w.best) || math.Float64bits(g.pred) != math.Float64bits(w.pred) {
					t.Fatalf("%s seed %d: progress step %d is %+v, reference %+v", tc.name, seed, i, g, w)
				}
			}
		}
	}
}

func sameResult(a, b *Result) bool {
	return samePoint(a.Point, b.Point) && math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted) && a.Evals == b.Evals
}

func samePoint(a, b doe.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
