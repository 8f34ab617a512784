package exp

import (
	"fmt"
	"math"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/features"
	"repro/internal/model"
	"repro/internal/workloads"
)

// Cross-program modeling (ROADMAP item 3): instead of one model per
// program, pool measurements from many programs into a single dataset whose
// predictor rows concatenate the program's coded feature vector
// (internal/features) with the coded joint compiler/microarchitecture
// point, and fit one model over the pool. A model that generalizes across
// programs predicts execution time for programs it never measured — the
// serving path behind /v1/predict-program — and leave-one-program-out
// evaluation (RunLOPO) quantifies exactly that generalization.

// CrossRow builds one pooled predictor row from a program's raw feature
// vector and a coded joint point.
func CrossRow(f features.Vector, codedPoint []float64) []float64 {
	row := make([]float64, 0, len(f)+len(codedPoint))
	row = append(row, f.Code()...)
	return append(row, codedPoint...)
}

// CrossDataset is the pooled (features ⊕ flags ⊕ microarch) → cycles
// dataset over a program corpus, with per-program row spans retained for
// leave-one-program-out splits.
type CrossDataset struct {
	Programs []workloads.Workload
	Features []features.Vector // raw (uncoded) vector per program
	Points   [][]doe.Point     // measured joint points per program
	Spans    [][2]int          // per program: [start, end) rows in Data
	Data     *model.Dataset
}

// Rows returns the row-index slice of program i (for Dataset.Subset).
func (cd *CrossDataset) Rows(i int) []int {
	span := cd.Spans[i]
	idx := make([]int, 0, span[1]-span[0])
	for r := span[0]; r < span[1]; r++ {
		idx = append(idx, r)
	}
	return idx
}

// RowsExcept returns every row index outside program i, in order.
func (cd *CrossDataset) RowsExcept(i int) []int {
	span := cd.Spans[i]
	idx := make([]int, 0, cd.Data.Len()-(span[1]-span[0]))
	for r := 0; r < cd.Data.Len(); r++ {
		if r < span[0] || r >= span[1] {
			idx = append(idx, r)
		}
	}
	return idx
}

// CrossDesign returns program w's measurement design for the pooled
// dataset: a Latin hypercube over the joint space, seeded per program so
// the pool covers the space differently for every program while remaining
// deterministic and — through the farm's durable store — resumable.
func (h *Harness) CrossDesign(w workloads.Workload, n int) []doe.Point {
	return h.Space().LatinHypercube(n, h.rngFor("cross-design|"+w.Key()))
}

// BuildCrossDataset extracts features for every workload and measures its
// per-program design, pooling everything into one dataset. All jobs go to
// the farm as a single batch, so the measurement plane's batch planner groups
// points sharing a binary and the worker pool stays saturated across
// programs; the rows are assembled from that batch's answer. Interrupted
// builds resume from the durable store when the harness has a CacheDir.
func (h *Harness) BuildCrossDataset(ws []workloads.Workload, pointsPer int) (*CrossDataset, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("exp: cross dataset needs at least one workload")
	}
	if pointsPer <= 0 {
		return nil, fmt.Errorf("exp: cross dataset needs pointsPer > 0, got %d", pointsPer)
	}
	cd := &CrossDataset{Programs: ws}

	var jobs []farm.Job
	for _, w := range ws {
		f, err := features.Extract(w)
		if err != nil {
			return nil, fmt.Errorf("exp: features for %s: %w", w.Key(), err)
		}
		pts := h.CrossDesign(w, pointsPer)
		cd.Features = append(cd.Features, f)
		cd.Points = append(cd.Points, pts)
		for _, p := range pts {
			jobs = append(jobs, farm.Job{Workload: w, Point: p})
		}
	}
	h.logf("cross dataset: %d programs x %d points, measuring %d jobs",
		len(ws), pointsPer, len(jobs))
	measured, err := h.measureAll(jobs)
	if err != nil {
		return nil, err
	}

	xs := make([][]float64, 0, len(jobs))
	ys := make([]float64, 0, len(jobs))
	for i := range ws {
		start := len(xs)
		for _, p := range cd.Points[i] {
			xs = append(xs, CrossRow(cd.Features[i], h.Space().Code(p)))
			ys = append(ys, measured[len(ys)].Cycles) // rows are in job order
		}
		cd.Spans = append(cd.Spans, [2]int{start, len(xs)})
	}
	data, err := model.NewDataset(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("exp: cross dataset: %w", err)
	}
	cd.Data = data
	if err := h.SaveCache(); err != nil {
		h.logf("cache save failed: %v", err)
	}
	return cd, nil
}

// FitCrossModels fits the three techniques on a pooled cross-program
// dataset. Unlike the per-program fits, the linear model uses the
// main-effects expansion: the pooled space has 49 variables (24 features,
// 25 design variables), and the two-factor interaction expansion's 1200+
// terms would need more rows than realistic corpora provide. MARS and
// RBF-RT discover feature x flag interactions natively, which is precisely what
// cross-program generalization needs them for. The one MARS fit that is
// both the "mars" model and the RBF-RT trend runs on a modest term budget,
// the same for LOPO folds and for serving: the package default (99 forward
// bases in 49 variables) outgrows pools of a few hundred rows, where every
// pruned subset's GCV is infinite and the backward pass keeps them all.
func FitCrossModels(train *model.Dataset, workers int) (map[string]model.Model, error) {
	mo := model.MARSOptions{MaxTerms: 21, MaxKnots: 8, Workers: workers}
	return fitModels(train, workers, doe.ExpandLinear, mo, false, model.FitMARS)
}

// LOPOOptions configures the leave-one-program-out run.
type LOPOOptions struct {
	// MaxFolds bounds the number of held-out programs (0 = every program).
	// Bounding folds evaluates a corpus sample at a fraction of the fitting
	// cost; folds are taken in corpus order, so the bound is deterministic.
	MaxFolds int
	// Baseline additionally fits a per-program linear model on the held-out
	// program's own rows (75/25 split, feature block dropped) — the
	// "what if we had measured it" reference the cross model competes with.
	Baseline bool
}

// LOPORow is one held-out program's evaluation: prediction error (mean
// absolute percent) of each cross model on the program's rows, plus the
// per-program baseline where requested and fittable.
type LOPORow struct {
	Program  string
	Rows     int
	Linear   float64
	MARS     float64
	RBF      float64
	Baseline float64 // NaN when not computed (disabled or too few rows)
}

// LOPOResult is the full leave-one-program-out evaluation.
type LOPOResult struct {
	Rows []LOPORow
	// Mean errors across folds, keyed like the per-row fields.
	MeanLinear, MeanMARS, MeanRBF float64
}

// RunLOPO evaluates cross-program generalization: for each held-out
// program, fit all cross models on every other program's rows and score
// them on the held-out rows the models never saw. This is the experiment
// behind the EXPERIMENTS.md LOPO table.
func (h *Harness) RunLOPO(cd *CrossDataset, opts LOPOOptions) (*LOPOResult, error) {
	folds := len(cd.Programs)
	if opts.MaxFolds > 0 && opts.MaxFolds < folds {
		folds = opts.MaxFolds
	}
	res := &LOPOResult{}
	for i := 0; i < folds; i++ {
		w := cd.Programs[i]
		train, err := cd.Data.Subset(cd.RowsExcept(i))
		if err != nil {
			return nil, err
		}
		test, err := cd.Data.Subset(cd.Rows(i))
		if err != nil {
			return nil, err
		}
		ms, err := FitCrossModels(train, h.Workers)
		if err != nil {
			return nil, fmt.Errorf("exp: lopo fold %s: %w", w.Key(), err)
		}
		row := LOPORow{
			Program:  w.Key(),
			Rows:     test.Len(),
			Linear:   model.TestError(ms["linear"], test),
			MARS:     model.TestError(ms["mars"], test),
			RBF:      model.TestError(ms["rbf"], test),
			Baseline: math.NaN(),
		}
		if opts.Baseline {
			row.Baseline = h.lopoBaseline(test)
		}
		res.Rows = append(res.Rows, row)
		h.logf("lopo %s: linear=%.2f%% mars=%.2f%% rbf=%.2f%%",
			w.Key(), row.Linear, row.MARS, row.RBF)
	}
	n := float64(len(res.Rows))
	for _, r := range res.Rows {
		res.MeanLinear += r.Linear / n
		res.MeanMARS += r.MARS / n
		res.MeanRBF += r.RBF / n
	}
	return res, nil
}

// lopoBaseline fits a per-program linear model on the held-out program's
// own rows — 75% train, 25% test, feature columns dropped (they are
// constant within one program and would make the Gram matrix singular) —
// and returns its test error. NaN when the split leaves fewer rows than
// main-effects coefficients.
func (h *Harness) lopoBaseline(own *model.Dataset) float64 {
	nvars := h.Space().NumVars()
	cols := make([]int, nvars)
	for i := range cols {
		cols[i] = features.NumFeatures() + i
	}
	pointOnly, err := own.Columns(cols)
	if err != nil {
		return math.NaN()
	}
	split := pointOnly.Len() * 3 / 4
	if split < nvars+1 || pointOnly.Len()-split < 1 {
		return math.NaN()
	}
	idx := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	train, err := pointOnly.Subset(idx(0, split))
	if err != nil {
		return math.NaN()
	}
	test, err := pointOnly.Subset(idx(split, pointOnly.Len()))
	if err != nil {
		return math.NaN()
	}
	m, err := model.FitLinear(train, doe.ExpandLinear)
	if err != nil {
		return math.NaN()
	}
	return model.TestError(m, test)
}

// LOPOTable formats the result as the repo's standard fixed-width table.
func (res *LOPOResult) LOPOTable() string {
	t := newTable("Leave-one-program-out: held-out prediction error (%) per cross model")
	t.row("Held-out program", "Rows", "Linear", "MARS", "RBF-RT", "Own-fit baseline")
	fmtBase := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return f2(v)
	}
	for _, r := range res.Rows {
		t.row(r.Program, fmt.Sprint(r.Rows), f2(r.Linear), f2(r.MARS), f2(r.RBF), fmtBase(r.Baseline))
	}
	t.row("Mean", "", f2(res.MeanLinear), f2(res.MeanMARS), f2(res.MeanRBF), "")
	return t.String()
}
