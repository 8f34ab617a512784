// Package model implements the three empirical modeling techniques the
// paper evaluates — linear regression with two-factor interactions,
// Multivariate Adaptive Regression Splines (MARS), and Radial Basis Function
// (RBF) networks with regression-tree center selection — together with the
// overfitting-control criteria (BIC, GCV) and the effect/interaction
// interpretation used for Table 4.
//
// All models consume design points in coded coordinates (each variable
// scaled to [-1, 1], log-transformed where the space says so) and predict
// the response (execution time in cycles).
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/doe"
	"repro/internal/linalg"
	"repro/internal/par"
)

// Model predicts the response at a coded design point.
type Model interface {
	// Predict returns the estimated response at coded coordinates x. A
	// fitted model is immutable, so Predict must be (and all models in
	// this package are) safe for concurrent use — PredictAllParallel and
	// the GA's batched fitness evaluation rely on it.
	Predict(x []float64) float64
	// Name identifies the technique ("linear", "mars", "rbf-rt").
	Name() string
}

// Dataset pairs coded design points with measured responses.
type Dataset struct {
	X []([]float64) // coded points, all the same length
	Y []float64
}

// NewDataset validates and wraps points/responses.
func NewDataset(x [][]float64, y []float64) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("model: %d points but %d responses", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("model: empty dataset")
	}
	k := len(x[0])
	for i, p := range x {
		if len(p) != k {
			return nil, fmt.Errorf("model: point %d has %d coords, want %d", i, len(p), k)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// checkFinite returns an error naming the first row of d that holds a NaN or
// infinite coordinate or response. The fitters call it before touching the
// data: least squares on such a row does not fail, it returns non-finite
// coefficients with a nil error.
func checkFinite(d *Dataset) error {
	for i, x := range d.X {
		if y := d.Y[i]; math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("row %d: response is %v", i, y)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d: coordinate %d is %v", i, j, v)
			}
		}
	}
	return nil
}

// Dim returns the number of predictor variables.
func (d *Dataset) Dim() int { return len(d.X[0]) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns the dataset restricted to the given row indices, in the
// given order. Rows are shared, not copied — subsets are views, so
// leave-one-program-out folds over a pooled dataset cost only the index
// slices.
func (d *Dataset) Subset(idx []int) (*Dataset, error) {
	xs := make([][]float64, len(idx))
	ys := make([]float64, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, fmt.Errorf("model: subset index %d out of range [0, %d)", j, d.Len())
		}
		xs[i] = d.X[j]
		ys[i] = d.Y[j]
	}
	return NewDataset(xs, ys)
}

// Columns returns the dataset restricted to the given predictor columns, in
// the given order. Responses are shared; rows are rebuilt. The
// leave-one-program-out baseline uses it to drop the feature block (constant
// within one program, hence singular in a per-program fit).
func (d *Dataset) Columns(cols []int) (*Dataset, error) {
	xs := make([][]float64, d.Len())
	for i, x := range d.X {
		row := make([]float64, len(cols))
		for k, c := range cols {
			if c < 0 || c >= len(x) {
				return nil, fmt.Errorf("model: column index %d out of range [0, %d)", c, len(x))
			}
			row[k] = x[c]
		}
		xs[i] = row
	}
	return NewDataset(xs, d.Y)
}

// PredictAll evaluates m at every point of xs.
func PredictAll(m Model, xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// PredictAllParallel evaluates m at every point of xs on up to workers
// goroutines (0 = GOMAXPROCS). Each output index is computed independently,
// so the result is identical to PredictAll at any worker count.
func PredictAllParallel(m Model, xs [][]float64, workers int) []float64 {
	out := make([]float64, len(xs))
	par.For(len(xs), workers, func(i int) {
		out[i] = m.Predict(xs[i])
	})
	return out
}

// TestError returns the mean absolute percentage prediction error of m on a
// test set — the accuracy metric of the paper's Table 3.
func TestError(m Model, test *Dataset) float64 {
	return linalg.MeanAbsPctError(PredictAll(m, test.X), test.Y)
}

// BIC implements the paper's Equation 9: a complexity-penalized version of
// the training SSE, with p samples and gamma model parameters.
func BIC(sse float64, p, gamma int) float64 {
	if p <= gamma {
		return math.Inf(1)
	}
	fp := float64(p)
	fg := float64(gamma)
	return (fp + (math.Log(fp)-1)*fg) / (fp * (fp - fg)) * sse
}

// GCV is the generalized cross-validation score with effective parameter
// count c: SSE/p / (1-c/p)².
func GCV(sse float64, p int, c float64) float64 {
	fp := float64(p)
	if c >= fp {
		return math.Inf(1)
	}
	d := 1 - c/fp
	return sse / fp / (d * d)
}

// LinearModel is a global parametric regression over an expanded term set
// (intercept, main effects and optionally all two-factor interactions —
// the paper's Equation 2).
type LinearModel struct {
	Expansion doe.Expansion
	Coef      []float64
	TrainSSE  float64
}

// FitLinear estimates a linear model by least squares (QR, with a ridge
// fallback when the expanded design matrix is rank-deficient, as it
// necessarily is when samples < terms). A non-finite coordinate or response
// is an error naming its row.
func FitLinear(data *Dataset, exp doe.Expansion) (*LinearModel, error) {
	if err := checkFinite(data); err != nil {
		return nil, fmt.Errorf("model: linear fit: %w", err)
	}
	rows := make([][]float64, data.Len())
	for i, x := range data.X {
		rows[i] = doe.ExpandCoded(x, exp)
	}
	a := linalg.FromRows(rows)
	coef, err := linalg.LeastSquares(a, data.Y)
	if err != nil {
		return nil, fmt.Errorf("model: linear fit: %w", err)
	}
	m := &LinearModel{Expansion: exp, Coef: coef}
	m.TrainSSE = linalg.SSE(a.MulVec(coef), data.Y)
	return m, nil
}

// Predict implements Model. It adds intercept, main effects and interaction
// products against Coef in doe.ExpandCoded's term order without building the
// row. Term for term these are the operations of linalg.Dot over the expanded
// row — each product x[i]*x[j] is rounded to a float64 before it meets its
// coefficient, as it is when stored in a row — so the result has the same
// bits, on targets that fuse multiply-add included.
func (m *LinearModel) Predict(x []float64) float64 {
	c := m.Coef
	s := 0 + c[0] // Dot starts at +0, which an intercept of −0 does not survive
	for i, v := range x {
		s += v * c[1+i]
	}
	if m.Expansion == doe.ExpandInteractions {
		t := 1 + len(x)
		for i := range x {
			for j := i + 1; j < len(x); j++ {
				s += float64(x[i]*x[j]) * c[t]
				t++
			}
		}
	}
	return s
}

// Name implements Model.
func (m *LinearModel) Name() string { return "linear" }

// NumParams returns the number of fitted coefficients.
func (m *LinearModel) NumParams() int { return len(m.Coef) }
