package exp

import (
	"fmt"

	"repro/internal/doe"
	"repro/internal/model"
	"repro/internal/workloads"
)

// RefineResult records one iteration of the model refinement loop.
type RefineResult struct {
	Points  int     // design size after this iteration
	CVError float64 // k-fold cross-validation error of the RBF model (%)
}

// RefineToAccuracy implements the paper's Figure 1 loop: build a model from
// an initial D-optimal design, estimate its error, and augment the design
// with additional D-optimal points until the error target is met or the
// budget is exhausted. Error is estimated by cross-validation on the
// measured data, so the loop needs no independent test simulations.
//
// Returns the final model, the full design, and the per-iteration history.
func (h *Harness) RefineToAccuracy(w workloads.Workload, targetErrPct float64,
	initial, step, maxPoints int) (model.Model, []doe.Point, []RefineResult, error) {
	if initial < 10 || step < 1 || maxPoints < initial {
		return nil, nil, nil, fmt.Errorf("exp: invalid refinement sizes %d/%d/%d", initial, step, maxPoints)
	}
	rng := h.rngFor("refine-" + w.Key())
	design := doe.DOptimal(h.Space(), initial, rng,
		doe.DOptions{Expansion: h.Scale.DesignExpansion, MaxSweeps: 6})
	points := design.Points

	fitter := func(d *model.Dataset) (model.Model, error) { return FitRBF(d) }

	var history []RefineResult
	for {
		data, err := h.BuildDataset(w, points)
		if err != nil {
			return nil, nil, nil, err
		}
		folds := 5
		if data.Len() < 25 {
			folds = 3
		}
		cv, err := model.CrossValidateParallel(data, folds, h.Seed, h.Workers, fitter)
		if err != nil {
			return nil, nil, nil, err
		}
		history = append(history, RefineResult{Points: len(points), CVError: cv})
		h.logf("%s: refine: %d points, CV error %.2f%%", w.Key(), len(points), cv)

		if cv <= targetErrPct || len(points)+step > maxPoints {
			m, err := FitRBF(data)
			if err != nil {
				return nil, nil, nil, err
			}
			return m, points, history, nil
		}
		aug := doe.AugmentDOptimal(h.Space(), points, step, rng,
			doe.DOptions{Expansion: h.Scale.DesignExpansion, MaxSweeps: 4})
		points = aug.Points
	}
}
