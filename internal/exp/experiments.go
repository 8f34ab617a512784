package exp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/workloads"
)

// Study holds measured datasets and fitted models for a set of programs —
// the shared substrate for Tables 3, 4, 6, 7 and Figures 5, 6, 7.
type Study struct {
	Harness  *Harness
	Class    workloads.InputClass
	Programs []*ProgramData
	// Models maps program key -> technique ("linear"/"mars"/"rbf") -> model.
	Models map[string]map[string]model.Model
}

// RunStudy measures train/test data and fits all three model families for
// the named programs (nil means the full seven-benchmark suite).
func (h *Harness) RunStudy(names []string, class workloads.InputClass) (*Study, error) {
	if names == nil {
		names = workloads.Names()
	}
	st := &Study{Harness: h, Class: class, Models: map[string]map[string]model.Model{}}
	for _, name := range names {
		w, err := workloads.Get(name, class)
		if err != nil {
			return nil, err
		}
		pd, err := h.Collect(w)
		if err != nil {
			return nil, err
		}
		ms, err := FitAllParallel(pd.Train, h.Workers)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", w.Key(), err)
		}
		st.Programs = append(st.Programs, pd)
		st.Models[w.Key()] = ms
		h.logf("%s: fitted linear/mars/rbf", w.Key())
	}
	if err := h.SaveCache(); err != nil {
		h.logf("cache save failed: %v", err)
	}
	return st, nil
}

// Table3Row is one program's prediction errors (percent) per technique.
type Table3Row struct {
	Program string
	Linear  float64
	MARS    float64
	RBF     float64
}

// Table3 reproduces the paper's Table 3: average percentage test-set
// prediction error of the three modeling techniques per program.
func (s *Study) Table3() (string, []Table3Row) {
	var rows []Table3Row
	var sumL, sumM, sumR float64
	for _, pd := range s.Programs {
		ms := s.Models[pd.Workload.Key()]
		r := Table3Row{
			Program: pd.Workload.Key(),
			Linear:  model.TestError(ms["linear"], pd.Test),
			MARS:    model.TestError(ms["mars"], pd.Test),
			RBF:     model.TestError(ms["rbf"], pd.Test),
		}
		rows = append(rows, r)
		sumL += r.Linear
		sumM += r.MARS
		sumR += r.RBF
	}
	n := float64(len(rows))

	t := newTable("Table 3: average prediction error (%) on the independent test set")
	t.row("Benchmark-Input", "Linear model", "MARS", "RBF-RT")
	for _, r := range rows {
		t.row(r.Program, f2(r.Linear), f2(r.MARS), f2(r.RBF))
	}
	if n > 0 {
		t.row("Average", f2(sumL/n), f2(sumM/n), f2(sumR/n))
	}
	return t.String(), rows
}

// Fig5Point is one (training size, error) sample of the learning curve.
type Fig5Point struct {
	Size    int
	MeanErr float64
	StdErr  float64
}

// Fig5 reproduces Figure 5: RBF test error (mean ± sigma over resampled
// training subsets) as a function of training set size, per program.
func (s *Study) Fig5() (string, map[string][]Fig5Point) { return s.fig5(FitRBF) }

// fig5 is Fig5 with the fitter as a parameter (FitRBF outside tests). It
// draws every subsample serially, so the generator streams do not depend on
// the worker count, fits each distinct dataset once on the pool, and
// assembles the rows in draw order. A draw of the whole pool is the pool
// itself: its repeats share one error, and that one comes from the study's
// own "rbf" model where there is one, the same fit FitRBF would repeat.
func (s *Study) fig5(fit func(*model.Dataset) (model.Model, error)) (string, map[string][]Fig5Point) {
	const repeats = 4
	h := s.Harness
	type fitTask struct {
		data, test *model.Dataset
		m          model.Model // already fitted when non-nil
		err        error
		testErr    float64
	}
	type draw struct {
		program            string
		size, repeat, task int
	}
	var tasks []fitTask
	var draws []draw
	for _, pd := range s.Programs {
		pool, key := pd.Train, pd.Workload.Key()
		rng := h.rngFor("fig5-" + key)
		taskOf := map[*model.Dataset]int{}
		if m := s.Models[key]["rbf"]; m != nil {
			taskOf[pool] = len(tasks)
			tasks = append(tasks, fitTask{test: pd.Test, m: m})
		}
		for f := 1; f <= 4; f++ {
			size := pool.Len() * f / 4
			if size < 10 {
				continue
			}
			for r := 0; r < repeats; r++ {
				sub, err := subsample(pool, size, rng)
				if err != nil {
					h.logf("fig5: %s size %d repeat %d dropped: %v", key, size, r, err)
					continue
				}
				ti, seen := taskOf[sub]
				if !seen {
					ti = len(tasks)
					taskOf[sub] = ti
					tasks = append(tasks, fitTask{data: sub, test: pd.Test})
				}
				draws = append(draws, draw{key, size, r, ti})
			}
		}
	}
	par.For(len(tasks), h.Workers, func(i int) {
		t := &tasks[i]
		if t.m == nil {
			if t.m, t.err = fit(t.data); t.err != nil {
				return
			}
		}
		t.testErr = model.TestError(t.m, t.test)
	})

	out := map[string][]Fig5Point{}
	t := newTable("Figure 5: RBF model error vs training set size (mean ± sigma)")
	t.row("Benchmark-Input", "Size", "Mean err %", "Sigma")
	for i := 0; i < len(draws); {
		key, size := draws[i].program, draws[i].size
		var errs []float64
		for ; i < len(draws) && draws[i].program == key && draws[i].size == size; i++ {
			ft := tasks[draws[i].task]
			if ft.err != nil {
				h.logf("fig5: %s size %d repeat %d dropped: %v", key, size, draws[i].repeat, ft.err)
				continue
			}
			errs = append(errs, ft.testErr)
		}
		if len(errs) == 0 {
			h.logf("fig5: %s size %d has no fit left and is missing from the curve", key, size)
			continue
		}
		p := Fig5Point{
			Size:    size,
			MeanErr: linalg.Mean(errs),
			StdErr:  linalg.StdDev(errs),
		}
		out[key] = append(out[key], p)
		t.row(key, fmt.Sprint(size), f2(p.MeanErr), f2(p.StdErr))
	}
	return t.String(), out
}

// subsample draws size rows of d without replacement; the whole of d is d
// itself, with no draw.
func subsample(d *model.Dataset, size int, rng interface{ Perm(int) []int }) (*model.Dataset, error) {
	if size >= d.Len() {
		return d, nil
	}
	idx := rng.Perm(d.Len())[:size]
	xs := make([][]float64, size)
	ys := make([]float64, size)
	for i, j := range idx {
		xs[i] = d.X[j]
		ys[i] = d.Y[j]
	}
	return model.NewDataset(xs, ys)
}

// Fig6Pair is one (actual, predicted) test point.
type Fig6Pair struct {
	Actual    float64
	Predicted float64
}

// Fig6 reproduces Figure 6: actual vs RBF-predicted execution times on the
// test set for the programs with the highest errors (the paper shows art,
// vortex and mcf). Returns per-program scatter pairs plus the correlation.
func (s *Study) Fig6(programs []string) (string, map[string][]Fig6Pair) {
	if programs == nil {
		programs = []string{"179.art", "255.vortex", "181.mcf"}
	}
	want := map[string]bool{}
	for _, p := range programs {
		want[p] = true
	}
	out := map[string][]Fig6Pair{}
	t := newTable("Figure 6: actual vs predicted execution time (RBF models, test set)")
	t.row("Benchmark-Input", "Points", "Correlation", "Max |err| %")
	for _, pd := range s.Programs {
		if !want[pd.Workload.Name] {
			continue
		}
		m := s.Models[pd.Workload.Key()]["rbf"]
		pred := model.PredictAll(m, pd.Test.X)
		var pairs []Fig6Pair
		maxErr := 0.0
		for i := range pred {
			pairs = append(pairs, Fig6Pair{Actual: pd.Test.Y[i], Predicted: pred[i]})
			if e := 100 * math.Abs(pred[i]-pd.Test.Y[i]) / pd.Test.Y[i]; e > maxErr {
				maxErr = e
			}
		}
		out[pd.Workload.Key()] = pairs
		t.row(pd.Workload.Key(), fmt.Sprint(len(pairs)),
			f2(correlation(pd.Test.Y, pred)), f2(maxErr))
	}
	return t.String(), out
}

func correlation(a, b []float64) float64 {
	ma, mb := linalg.Mean(a), linalg.Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// Table4Cell is one effect coefficient for one program.
type Table4Cell struct {
	Label string
	Value float64
}

// Table4 reproduces the paper's Table 4: coefficients of the key parameters
// and interactions inferred from the MARS models, per program. Rows are the
// union of each program's top effects; values are in cycles (half the
// predicted low-to-high change, the paper's convention).
func (s *Study) Table4(topPerProgram int) (string, map[string][]Table4Cell) {
	if topPerProgram == 0 {
		topPerProgram = 10
	}
	space := s.Harness.Space()
	effects := make([][]model.Effect, len(s.Programs))
	par.For(len(s.Programs), s.Harness.Workers, func(i int) {
		pd := s.Programs[i]
		effects[i] = model.TopEffects(s.Models[pd.Workload.Key()]["mars-raw"], space, pd.Train.X, topPerProgram)
	})
	perProg := map[string]map[string]float64{}
	rowOrder := []string{}
	rowMax := map[string]float64{}
	for i, pd := range s.Programs {
		cells := map[string]float64{}
		for _, e := range effects[i] {
			cells[e.Label()] = e.Value
			if a := math.Abs(e.Value); a > rowMax[e.Label()] {
				if rowMax[e.Label()] == 0 {
					rowOrder = append(rowOrder, e.Label())
				}
				rowMax[e.Label()] = a
			}
		}
		perProg[pd.Workload.Key()] = cells
	}
	sort.SliceStable(rowOrder, func(i, j int) bool {
		return rowMax[rowOrder[i]] > rowMax[rowOrder[j]]
	})

	t := newTable("Table 4: key parameter/interaction coefficients from MARS models (cycles)")
	hdr := []string{"Parameter/interaction"}
	for _, pd := range s.Programs {
		hdr = append(hdr, pd.Workload.Name)
	}
	t.row(hdr...)
	out := map[string][]Table4Cell{}
	for _, label := range rowOrder {
		cells := []string{label}
		for _, pd := range s.Programs {
			v, ok := perProg[pd.Workload.Key()][label]
			if !ok {
				cells = append(cells, "0")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3g", v))
			out[pd.Workload.Key()] = append(out[pd.Workload.Key()],
				Table4Cell{Label: label, Value: v})
		}
		t.row(cells...)
	}
	return t.String(), out
}
