// Package search implements the paper's model-based design space
// exploration: a genetic algorithm searches for the compiler flag and
// heuristic settings that minimize predicted execution time under a frozen
// microarchitectural configuration, using an empirical model as a zero-cost
// surrogate for simulation.
package search

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/doe"
	"repro/internal/model"
)

// Problem is one model-based minimization over a parameter space.
type Problem struct {
	Space *doe.Space
	Model model.Model
	// Frozen maps variable indices to fixed raw values (e.g. the
	// microarchitectural block when searching compiler settings for a
	// given platform).
	Frozen map[int]int64
}

// The GA's breeding operators are fixed.
const (
	tournamentSize = 3    // contestants per parent selection
	crossRate      = 0.5  // per-gene probability of taking parent B
	mutRate        = 0.08 // per-gene mutation probability
	elite          = 2    // individuals carried over unchanged
)

// GAOptions tunes the genetic algorithm. The zero value of a size means
// "use the default".
type GAOptions struct {
	Population  int // default 60
	Generations int // default 40
	// Workers is unused: the GA scores its population on the calling
	// goroutine. It stays because benchmark/sweep_layers.go sets it.
	Workers int
	// Progress, when non-nil, is called after each generation's fitness
	// evaluation (gen 0 is the initial population) with the best point and
	// predicted response found so far. It runs on the search goroutine, so
	// callbacks are ordered and may stream results; the point is a copy the
	// callee may retain.
	Progress func(gen int, best doe.Point, predicted float64)
}

func (o GAOptions) withDefaults() GAOptions {
	if o.Population == 0 {
		o.Population = 60
	}
	if o.Generations == 0 {
		o.Generations = 40
	}
	return o
}

// Result reports the best point found and its predicted response.
type Result struct {
	Point     doe.Point
	Predicted float64
	Evals     int
}

// gene is one frozen variable: its index and raw value.
type gene struct {
	i int
	v int64
}

// OptimizeCtx runs the GA and returns the best design point found (raw
// values), minimizing the model's predicted response. It checks ctx between
// generations: a cancelled context (a disconnected search client, Ctrl-C)
// stops the search at the next generation boundary and returns the best
// point found so far together with ctx's error. The trajectory up to the
// cancellation point is identical to an uncancelled run with the same seed.
func OptimizeCtx(ctx context.Context, p Problem, opt GAOptions, rng *rand.Rand) (*Result, error) {
	opt = opt.withDefaults()
	k := p.Space.NumVars()

	// Each frozen gene writes its own index, so the map's order is moot.
	frozen := make([]gene, 0, len(p.Frozen))
	for i, v := range p.Frozen {
		frozen = append(frozen, gene{i, v})
	}
	clamp := func(pt doe.Point) {
		for _, g := range frozen {
			pt[g.i] = g.v
		}
	}

	// Two generations' worth of rows: children are bred from pop into
	// next, and the two swap.
	pop := make([]doe.Point, opt.Population)
	next := make([]doe.Point, opt.Population)
	for i := range pop {
		pop[i] = p.Space.RandomPoint(rng)
		clamp(pop[i])
		next[i] = make(doe.Point, k)
	}
	coded := make([][]float64, opt.Population)
	fit := make([]float64, opt.Population)
	evals := 0
	score := func() {
		for i, pt := range pop {
			coded[i] = p.Space.CodeInto(pt, coded[i])
			fit[i] = p.Model.Predict(coded[i])
		}
		evals += len(pop)
	}
	score()

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
		if err := ctx.Err(); err != nil {
			return &Result{Point: best, Predicted: bestFit, Evals: evals}, err
		}
		// Elitism: carry the best individuals forward.
		order := sortedByFitness(fit)
		nElite := min(elite, len(order))
		for e := 0; e < nElite; e++ {
			copy(next[e], pop[order[e]])
		}
		for _, child := range next[nElite:] {
			a, b := tournament(), tournament()
			for g := range child {
				if rng.Float64() < crossRate {
					child[g] = b[g]
				} else {
					child[g] = a[g]
				}
				if rng.Float64() < mutRate {
					levels := p.Space.Levels(g)
					child[g] = levels[rng.Intn(len(levels))]
				}
			}
			clamp(child)
		}
		pop, next = next, pop
		score()
		for i := range pop {
			if fit[i] < bestFit {
				bestFit = fit[i]
				copy(best, pop[i])
			}
		}
		report(gen + 1)
	}
	return &Result{Point: best, Predicted: bestFit, Evals: evals}, nil
}

// FindCompilerSettingsCtx freezes the microarchitectural block of the joint
// space to march (11 raw values) and searches the compiler block — the
// platform-specific optimization search of the paper's Section 6.3 — with
// generation-boundary cancellation (see OptimizeCtx).
func FindCompilerSettingsCtx(ctx context.Context, space *doe.Space, m model.Model, march []int64, opt GAOptions, rng *rand.Rand) (*Result, error) {
	frozen := map[int]int64{}
	for i, v := range march {
		frozen[doe.NumCompilerVars+i] = v
	}
	return OptimizeCtx(ctx, Problem{Space: space, Model: m, Frozen: frozen}, opt, rng)
}

func argmin(xs []float64) int {
	bi, bv := 0, math.Inf(1)
	for i, x := range xs {
		if x < bv {
			bi, bv = i, x
		}
	}
	return bi
}

// sortedByFitness returns the population indices ordered by ascending
// fitness. Equal fitnesses keep their index order — the same result as the
// stable insertion sort this replaced, at O(n log n).
func sortedByFitness(fit []float64) []int {
	idx := make([]int, len(fit))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if fit[idx[a]] != fit[idx[b]] {
			return fit[idx[a]] < fit[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}
