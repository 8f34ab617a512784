package search

import (
	"math/rand"

	"repro/internal/doe"
)

// RandomSearch evaluates `evals` uniformly random points (respecting frozen
// variables) and returns the best — the naive baseline the GA must beat at
// equal evaluation budget.
func RandomSearch(p Problem, evals int, rng *rand.Rand) *Result {
	best := &Result{Predicted: 0, Evals: evals}
	for i := 0; i < evals; i++ {
		pt := p.Space.RandomPoint(rng)
		for vi, v := range p.Frozen {
			pt[vi] = v
		}
		fit := p.Model.Predict(p.Space.Code(pt))
		if best.Point == nil || fit < best.Predicted {
			best.Point = pt
			best.Predicted = fit
		}
	}
	return best
}

// HillClimb runs steepest-descent over the level lattice with random
// restarts: from a random start, repeatedly move to the best single-variable
// level change until no move improves, restarting until the evaluation
// budget is spent.
func HillClimb(p Problem, evals int, rng *rand.Rand) *Result {
	res := &Result{}
	spent := 0
	eval := func(pt doe.Point) float64 {
		spent++
		return p.Model.Predict(p.Space.Code(pt))
	}
	clamp := func(pt doe.Point) {
		for vi, v := range p.Frozen {
			pt[vi] = v
		}
	}
	for spent < evals {
		cur := p.Space.RandomPoint(rng)
		clamp(cur)
		curFit := eval(cur)
		improved := true
		for improved && spent < evals {
			improved = false
			var bestPt doe.Point
			bestFit := curFit
			for vi := range p.Space.Vars {
				if _, frozen := p.Frozen[vi]; frozen {
					continue
				}
				for _, lv := range p.Space.Levels(vi) {
					if lv == cur[vi] {
						continue
					}
					cand := append(doe.Point{}, cur...)
					cand[vi] = lv
					if fit := eval(cand); fit < bestFit {
						bestFit, bestPt = fit, cand
					}
					if spent >= evals {
						break
					}
				}
				if spent >= evals {
					break
				}
			}
			if bestPt != nil {
				cur, curFit = bestPt, bestFit
				improved = true
			}
		}
		if res.Point == nil || curFit < res.Predicted {
			res.Point = cur
			res.Predicted = curFit
		}
	}
	res.Evals = spent
	return res
}
