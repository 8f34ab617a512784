package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/workloads"
)

// fitOnceScale is the benchmark's sweep size: 28 training points, so Fig 5
// has the sizes 14, 21 and 28 (7 is under its floor of 10).
var fitOnceScale = Scale{Name: "fitonce", TrainPoints: 28, TestPoints: 6,
	GAPopulation: 8, GAGenerations: 2}

// surfaceStub is a free measurement with the structure the real response
// has — multiplicative, one interaction, one threshold — so MARS and the
// residual network both have something to fit, and the two programs differ.
func surfaceStub(ctx context.Context, job farm.Job) (farm.Result, error) {
	x := doe.JointSpace().Code(job.Point)
	k := float64(job.Workload.Name[2]-'0') / 10 // 179.art 0.9, 181.mcf 0.1
	c := 1e6 * (1 + k) * math.Exp((0.3+0.2*k)*x[13]+0.2*x[15]*x[13]-0.15*x[3]+0.3*math.Max(0, x[20]-k)+0.05*math.Sin(3*x[17]))
	return farm.Result{Cycles: c, Energy: c / 2, Instructions: 1000}, nil
}

// fitOnceStudy is one stub study of two programs, built once and only read
// by the tests that share it.
var fitOnceStudy = sync.OnceValues(func() (*Study, error) {
	h := NewHarness(fitOnceScale)
	h.Measure = surfaceStub
	defer h.Close()
	return h.RunStudy([]string{"179.art", "181.mcf"}, workloads.Train)
})

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	t.Parallel()
	st, err := fitOnceStudy()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameBits(t *testing.T, what string, got, want model.Model, xs [][]float64) {
	t.Helper()
	for i, x := range xs {
		if g, w := got.Predict(x), want.Predict(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: point %d predicts %v, standalone fit %v", what, i, g, w)
		}
	}
}

// TestFitAllSharesTrend pins the trend identity: the "rbf" model's MARS
// trend is the "mars" model, and nothing that shares it moves by a bit
// against the standalone fits, at any worker count.
func TestFitAllSharesTrend(t *testing.T) {
	st := sharedStudy(t)
	h := st.Harness
	var xs [][]float64
	for _, p := range h.Space().LatinHypercube(200, h.rngFor("probe")) {
		xs = append(xs, h.Space().Code(p))
	}
	trendOf := func(ms map[string]model.Model) (trend, mars *model.MARSModel) {
		return ms["rbf"].(model.LogModel).Inner.(*model.HybridRBFModel).Trend,
			ms["mars"].(model.LogModel).Inner.(*model.MARSModel)
	}
	for _, pd := range st.Programs {
		data, logData := pd.Train, model.LogDataset(pd.Train)
		mars, err := model.FitMARS(logData, model.MARSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rbf, err := FitRBF(data)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := model.FitMARS(data, model.MARSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			what := fmt.Sprintf("%s workers=%d", pd.Workload.Key(), workers)
			ms, err := FitAllParallel(data, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, what+" mars", ms["mars"], model.LogModel{Inner: mars}, xs)
			sameBits(t, what+" rbf", ms["rbf"], rbf, xs)
			sameBits(t, what+" mars-raw", ms["mars-raw"], raw, xs)
			if trend, inner := trendOf(ms); trend != inner {
				t.Fatalf("%s: FitAllParallel fitted the trend apart from the mars model", what)
			}
		}
	}

	// One MARS fit per distinct dataset, and a failed one is reported as
	// before: the log fit's error ahead of the raw fit's.
	data := st.Programs[0].Train
	var calls atomic.Int64
	counting := func(d *model.Dataset, mo model.MARSOptions) (*model.MARSModel, error) {
		calls.Add(1)
		return model.FitMARS(d, mo)
	}
	if _, err := fitModels(data, 2, counting); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d MARS fits, want 2", calls.Load())
	}
	errLog, errRaw := errors.New("log fit failed"), errors.New("raw fit failed")
	failing := func(failLog bool) func(*model.Dataset, model.MARSOptions) (*model.MARSModel, error) {
		return func(d *model.Dataset, mo model.MARSOptions) (*model.MARSModel, error) {
			switch {
			case d == data:
				return nil, errRaw
			case failLog:
				return nil, errLog
			}
			return model.FitMARS(d, mo)
		}
	}
	for _, workers := range []int{1, 4} {
		if _, err := fitModels(data, workers, failing(true)); !errors.Is(err, errLog) {
			t.Fatalf("workers=%d: both fits failed, got %v, want the log fit's error", workers, err)
		}
		if _, err := fitModels(data, workers, failing(false)); !errors.Is(err, errRaw) {
			t.Fatalf("workers=%d: raw fit failed, got %v", workers, err)
		}
	}
}

// fig5Serial is Fig5 as it was before the fits went on the pool: one fit
// per (program, size, repeat), in order. It is the oracle for fig5.
func fig5Serial(s *Study, fit func(*model.Dataset) (model.Model, error)) (string, map[string][]Fig5Point) {
	const repeats = 4
	out := map[string][]Fig5Point{}
	t := newTable("Figure 5: RBF model error vs training set size (mean ± sigma)")
	t.row("Benchmark-Input", "Size", "Mean err %", "Sigma")
	for _, pd := range s.Programs {
		pool := pd.Train
		rng := s.Harness.rngFor("fig5-" + pd.Workload.Key())
		for f := 1; f <= 4; f++ {
			size := pool.Len() * f / 4
			if size < 10 {
				continue
			}
			var errs []float64
			for r := 0; r < repeats; r++ {
				sub, err := subsample(pool, size, rng)
				if err != nil {
					continue
				}
				m, err := fit(sub)
				if err != nil {
					continue
				}
				errs = append(errs, model.TestError(m, pd.Test))
			}
			if len(errs) == 0 {
				continue
			}
			p := Fig5Point{Size: size, MeanErr: linalg.Mean(errs), StdErr: linalg.StdDev(errs)}
			out[pd.Workload.Key()] = append(out[pd.Workload.Key()], p)
			t.row(pd.Workload.Key(), fmt.Sprint(size), f2(p.MeanErr), f2(p.StdErr))
		}
	}
	return t.String(), out
}

// atWorkers is the study seen through a harness with another worker count
// (and its own log), sharing the measured data and the fitted models.
func atWorkers(st *Study, workers int, log *bytes.Buffer) *Study {
	h := &Harness{Scale: st.Harness.Scale, Seed: st.Harness.Seed, Workers: workers}
	if log != nil {
		h.Log = log
	}
	return &Study{Harness: h, Class: st.Class, Programs: st.Programs, Models: st.Models}
}

// standIn is a fitter that costs nothing and tells datasets apart: a
// constant model at the mean of the log response.
func standIn(d *model.Dataset) (model.Model, error) {
	coef := make([]float64, d.Dim()+1)
	coef[0] = linalg.Mean(model.LogDataset(d).Y)
	return model.LogModel{Inner: &model.LinearModel{Expansion: doe.ExpandLinear, Coef: coef}}, nil
}

func TestFig5ParallelMatchesSerial(t *testing.T) {
	st := sharedStudy(t)
	wantText, wantPoints := fig5Serial(st, FitRBF)
	for _, key := range []string{"179.art-train", "181.mcf-train"} {
		if len(wantPoints[key]) != 3 {
			t.Fatalf("%s: %d sizes on the curve, want 3:\n%s", key, len(wantPoints[key]), wantText)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		text, points := atWorkers(st, workers, nil).Fig5()
		if text != wantText || !reflect.DeepEqual(points, wantPoints) {
			t.Errorf("workers=%d: Fig 5 differs from the serial loop:\n%s\nwant\n%s", workers, text, wantText)
		}
	}

	// One fit per distinct dataset. Without fitted models in the study the
	// four whole-pool repeats share one fit; with them, they share the
	// study's own.
	var fits atomic.Int64
	counting := func(d *model.Dataset) (model.Model, error) {
		fits.Add(1)
		return standIn(d)
	}
	bare := atWorkers(st, 2, nil)
	bare.Models = nil
	wantText, wantPoints = fig5Serial(bare, counting)
	if fits.Load() != 24 {
		t.Fatalf("the serial loop made %d fits, want 24", fits.Load())
	}
	fits.Store(0)
	if text, points := bare.fig5(counting); text != wantText || !reflect.DeepEqual(points, wantPoints) {
		t.Errorf("without study models Fig 5 differs from the serial loop:\n%s\nwant\n%s", text, wantText)
	}
	if fits.Load() != 18 {
		t.Errorf("without study models: %d fits, want 18", fits.Load())
	}
	for _, workers := range []int{1, 2, 4} {
		fits.Store(0)
		atWorkers(st, workers, nil).fig5(counting)
		if fits.Load() != 16 {
			t.Errorf("workers=%d: %d fits, want 16", workers, fits.Load())
		}
	}
}

// A failed fit used to vanish without a word, and with it possibly a whole
// size of the curve.
func TestFig5LogsDroppedFits(t *testing.T) {
	st := sharedStudy(t)
	errFit := errors.New("no fit today")
	fit := func(d *model.Dataset) (model.Model, error) {
		if d.Len() == 14 || (d.Len() == 21 && d.X[0][0] > 0) {
			return nil, errFit
		}
		return standIn(d)
	}
	wantText, wantPoints := fig5Serial(st, fit)
	var log bytes.Buffer
	bare := atWorkers(st, 4, &log)
	bare.Models = nil // or the whole-pool point is the study's model, not the stand-in's
	text, points := bare.fig5(fit)
	if text != wantText || !reflect.DeepEqual(points, wantPoints) {
		t.Fatalf("Fig 5 with failing fits differs from the serial loop:\n%s\nwant\n%s", text, wantText)
	}
	for _, want := range []string{
		"fig5: 179.art-train size 14 repeat 0 dropped: no fit today",
		"fig5: 181.mcf-train size 14 repeat 3 dropped: no fit today",
		"fig5: 179.art-train size 14 has no fit left",
	} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, log.String())
		}
	}
	for key, ps := range points {
		for _, p := range ps {
			if p.Size == 14 {
				t.Errorf("%s: size 14 is on the curve although every fit of it failed", key)
			}
		}
	}
	ragged := &model.Dataset{X: [][]float64{{1}, {1, 2}, {1}}, Y: []float64{1, 2, 3}}
	if _, err := subsample(ragged, 2, reversed{}); err == nil {
		t.Error("subsample swallowed the dataset error")
	}
}

// reversed is a generator whose permutation is n-1 … 0.
type reversed struct{}

func (reversed) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func TestTable4ParallelMatchesSerial(t *testing.T) {
	st := sharedStudy(t)
	wantText, wantCells := atWorkers(st, 1, nil).Table4(10)
	if len(wantCells) != 2 {
		t.Fatalf("Table 4 has %d programs:\n%s", len(wantCells), wantText)
	}
	for _, workers := range []int{2, 4} {
		text, cells := atWorkers(st, workers, nil).Table4(10)
		if text != wantText || !reflect.DeepEqual(cells, wantCells) {
			t.Errorf("workers=%d: Table 4 differs from the serial pass:\n%s\nwant\n%s", workers, text, wantText)
		}
	}
}

// TestFitAllRefusesNonFiniteResponse: a zero response passes the linear fit
// (raw scale) and is refused where LogDataset turned it into −Inf; a NaN
// response is refused by the linear fit first — the serial path's priority
// (linear, mars, rbf, mars-raw) at any worker count.
func TestFitAllRefusesNonFiniteResponse(t *testing.T) {
	st := sharedStudy(t)
	train := st.Programs[0].Train
	for _, c := range []struct {
		y    float64
		want string
	}{{0, "mars fit: row 5"}, {math.NaN(), "linear fit: row 5"}} {
		ys := append([]float64{}, train.Y...)
		ys[5] = c.y
		data, err := model.NewDataset(train.X, ys)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, err := FitAllParallel(data, workers); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("response %v, workers %d: error %v, want one containing %q", c.y, workers, err, c.want)
			}
		}
	}
}
