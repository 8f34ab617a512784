package exp

import (
	"fmt"

	"repro/internal/doe"
	"repro/internal/model"
)

// RefineResult records one iteration of the model refinement loop.
type RefineResult struct {
	Points  int     // design size after this iteration
	CVError float64 // k-fold cross-validation error of the RBF model (%)
}

// Refine runs the paper's Figure 1 loop on the study. Per program, until the
// RBF-RT error cross-validated on the training rows (5 folds, 3 under 25) is
// at most targetErrPct or step more points would pass maxPoints, it adds step
// D-optimal points to the design, measures them and refits the program's
// models on the Design, Measure and Fit clocks. It returns each history.
func (s *Study) Refine(targetErrPct float64, step, maxPoints int) (map[string][]RefineResult, error) {
	h := s.Harness
	if step < 1 || maxPoints < h.Scale.TrainPoints {
		return nil, fmt.Errorf("exp: invalid refinement sizes %d/%d/%d", h.Scale.TrainPoints, step, maxPoints)
	}
	history := map[string][]RefineResult{}
	for _, pd := range s.Programs {
		key := pd.Workload.Key()
		rng := h.rngFor("refine-" + key)
		for {
			folds := 5
			if pd.Train.Len() < 25 {
				folds = 3
			}
			cv, err := model.CrossValidateParallel(pd.Train, folds, h.Seed, h.Workers, FitRBF)
			if err != nil {
				return nil, fmt.Errorf("exp: %s: %w", key, err)
			}
			history[key] = append(history[key], RefineResult{Points: len(pd.TrainPoints), CVError: cv})
			h.logf("%s: refine: %d points, CV error %.2f%%", key, len(pd.TrainPoints), cv)
			if cv <= targetErrPct || len(pd.TrainPoints)+step > maxPoints {
				break
			}
			stop := h.clock(&s.Stages.Design)
			points := doe.AugmentDOptimal(h.Space(), pd.TrainPoints, step, rng,
				doe.DOptions{Expansion: h.Scale.DesignExpansion, MaxSweeps: 4}).Points
			stop()
			stop = h.clock(&s.Stages.Measure)
			data, err := h.BuildDataset(pd.Workload, points)
			stop()
			if err != nil {
				return nil, err
			}
			stop = h.clock(&s.Stages.Fit)
			ms, err := FitAllParallel(data, h.Workers)
			stop()
			if err != nil {
				return nil, fmt.Errorf("exp: %s: %w", key, err)
			}
			pd.TrainPoints, pd.Train, s.Models[key] = points, data, ms
		}
	}
	return history, nil
}
