package model

import "math"

// LogModel wraps a model fitted on the log-transformed response and
// exponentiates its predictions back to the original scale. Execution time
// varies multiplicatively across the microarchitectural space (memory
// latency, cache sizes), so fitting in log space aligns the squared-error
// objective with the relative-error metric the evaluation reports.
type LogModel struct {
	Inner Model
}

// Predict implements Model, returning a response on the original scale.
func (m LogModel) Predict(x []float64) float64 { return math.Exp(m.Inner.Predict(x)) }

// Name implements Model.
func (m LogModel) Name() string { return m.Inner.Name() + "-log" }

// LogDataset returns a copy of d with the response log-transformed.
// Responses must be positive: one that is not becomes −Inf or NaN here, and
// the fitter handed the result (FitMARS, FitRBF, FitLinear) refuses it with
// an error naming the row.
func LogDataset(d *Dataset) *Dataset {
	ys := make([]float64, len(d.Y))
	for i, y := range d.Y {
		ys[i] = math.Log(y)
	}
	nd, _ := NewDataset(d.X, ys)
	return nd
}

// HybridRBFModel is the repository's production RBF-RT variant: a MARS
// spline surface captures the global trends and threshold effects, and a
// regression-tree RBF network models the residual local structure. A pure
// kernel expansion cannot extrapolate the strong global interactions of
// this design space (memory latency × cache size and friends), which is why
// the localized network alone plateaus well above the spline hybrid; the
// hybrid keeps the regression-tree center selection and BIC control of the
// paper's RBF-RT while restoring its accuracy advantage over plain MARS.
type HybridRBFModel struct {
	Trend    *MARSModel
	Residual *RBFModel
}

// FitHybridRBF fits the trend-plus-residual network on data (typically
// log-transformed via LogDataset): FitMARS for the trend, then
// FitHybridOnTrend for the residual network.
func FitHybridRBF(data *Dataset, marsOpt MARSOptions, rbfOpt RBFOptions) (*HybridRBFModel, error) {
	trend, err := FitMARS(data, marsOpt)
	if err != nil {
		return nil, err
	}
	return FitHybridOnTrend(data, trend, rbfOpt)
}

// FitHybridOnTrend is the residual half of FitHybridRBF: it fits the
// regression-tree RBF network on what trend leaves unexplained of data. A
// caller that already holds the MARS fit of data (exp.FitAllParallel's
// "mars" model) passes it in and does not fit it again; the returned model
// keeps the pointer.
func FitHybridOnTrend(data *Dataset, trend *MARSModel, rbfOpt RBFOptions) (*HybridRBFModel, error) {
	resid := make([]float64, data.Len())
	for i, x := range data.X {
		resid[i] = data.Y[i] - trend.Predict(x)
	}
	rdata, err := NewDataset(data.X, resid)
	if err != nil {
		return nil, err
	}
	if len(rbfOpt.LeafSizes) == 0 {
		rbfOpt.LeafSizes = []int{2, 4, 8, 16}
	}
	residual, err := FitRBF(rdata, rbfOpt)
	if err != nil {
		return nil, err
	}
	return &HybridRBFModel{Trend: trend, Residual: residual}, nil
}

// Predict implements Model.
func (m *HybridRBFModel) Predict(x []float64) float64 {
	return m.Trend.Predict(x) + m.Residual.Predict(x)
}

// Name implements Model.
func (m *HybridRBFModel) Name() string { return "rbf-rt" }

// NumParams returns the total trained parameter count.
func (m *HybridRBFModel) NumParams() int {
	return m.Trend.NumParams() + m.Residual.NumParams()
}
