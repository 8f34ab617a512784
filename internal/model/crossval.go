package model

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/par"
)

// CrossValidate estimates a fitting procedure's prediction error by k-fold
// cross-validation over a dataset: the mean absolute percentage error over
// held-out folds. It is the assessment tool to reach for when simulations
// are too expensive for an independent test design — the alternative the
// paper's GCV/BIC criteria approximate analytically.
//
// It is the serial reference for CrossValidateParallel, which produces the
// identical estimate on a worker pool.
func CrossValidate(data *Dataset, k int, seed int64,
	fit func(*Dataset) (Model, error)) (float64, error) {
	return CrossValidateParallel(data, k, seed, 1, fit)
}

// CrossValidateParallel is CrossValidate with the k independent folds fitted
// and scored on up to workers goroutines (0 = GOMAXPROCS). Each fold reads
// only its own slice of the shared permutation and accumulates its own
// partial error, and the partials are combined in fold order — so the
// estimate is bit-for-bit identical for every worker count. fit must be
// safe for concurrent calls on distinct datasets.
func CrossValidateParallel(data *Dataset, k int, seed int64, workers int,
	fit func(*Dataset) (Model, error)) (float64, error) {
	n := data.Len()
	if k < 2 || k > n {
		return 0, fmt.Errorf("model: k=%d folds invalid for %d samples", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)

	type foldResult struct {
		sumErr float64
		count  int
		err    error
	}
	results := make([]foldResult, k)
	par.For(k, workers, func(fold int) {
		var trainX, testX [][]float64
		var trainY, testY []float64
		for i, idx := range perm {
			if i%k == fold {
				testX = append(testX, data.X[idx])
				testY = append(testY, data.Y[idx])
			} else {
				trainX = append(trainX, data.X[idx])
				trainY = append(trainY, data.Y[idx])
			}
		}
		trainDS, err := NewDataset(trainX, trainY)
		if err != nil {
			results[fold].err = err
			return
		}
		m, err := fit(trainDS)
		if err != nil {
			// A fold can be degenerate (e.g. all-identical responses);
			// skip rather than fail the whole estimate.
			return
		}
		for i, x := range testX {
			if testY[i] == 0 {
				continue
			}
			e := m.Predict(x) - testY[i]
			if e < 0 {
				e = -e
			}
			results[fold].sumErr += 100 * e / abs(testY[i])
			results[fold].count++
		}
	})

	totalErr, counted := 0.0, 0
	for _, r := range results {
		if r.err != nil {
			return 0, r.err
		}
		totalErr += r.sumErr
		counted += r.count
	}
	if counted == 0 {
		return 0, fmt.Errorf("model: cross-validation produced no usable folds")
	}
	return totalErr / float64(counted), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SelectByCV picks the fitting procedure with the lowest k-fold CV error;
// on equal scores the lexicographically first name wins, so the choice does
// not follow map order. Returns the winning name, its refit-on-everything
// model, and the per-name CV scores.
func SelectByCV(data *Dataset, k int, seed int64,
	fitters map[string]func(*Dataset) (Model, error)) (string, Model, map[string]float64, error) {
	names := make([]string, 0, len(fitters))
	for name := range fitters {
		names = append(names, name)
	}
	sort.Strings(names)
	scores := map[string]float64{}
	bestName := ""
	for _, name := range names {
		score, err := CrossValidate(data, k, seed, fitters[name])
		if err != nil {
			continue
		}
		scores[name] = score
		if bestName == "" || score < scores[bestName] {
			bestName = name
		}
	}
	if bestName == "" {
		return "", nil, nil, fmt.Errorf("model: no fitter succeeded under cross-validation")
	}
	m, err := fitters[bestName](data)
	if err != nil {
		return "", nil, nil, err
	}
	return bestName, m, scores, nil
}
