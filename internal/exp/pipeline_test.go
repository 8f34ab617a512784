package exp

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// countingBackend counts the submissions that reach the measurement plane:
// every DoJobs and MeasureBatch call is one.
type countingBackend struct {
	farm.Backend
	submissions atomic.Int64
}

func (b *countingBackend) DoJobs(ctx context.Context, jobs []farm.Job) ([]farm.Result, []error) {
	b.submissions.Add(1)
	return b.Backend.DoJobs(ctx, jobs)
}

func (b *countingBackend) MeasureBatch(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
	b.submissions.Add(1)
	return b.Backend.MeasureBatch(ctx, w, pts, resp)
}

// stubHarness is a harness at fitOnceScale on the free surfaceStub, its
// plane wrapped in a countingBackend.
func stubHarness(t *testing.T) (*Harness, *countingBackend) {
	t.Helper()
	h := NewHarness(fitOnceScale)
	h.Measure = surfaceStub
	cb := &countingBackend{}
	h.MakeBackend = func(opts farm.Options) farm.Backend {
		cb.Backend = farm.New(opts)
		return cb
	}
	t.Cleanup(func() { h.Close() })
	return h, cb
}

// RunStudy measures every program's training and test points as one batch:
// two programs are one submission to the plane, not one per program and set.
func TestRunStudyMeasuresInOneBatch(t *testing.T) {
	h, cb := stubHarness(t)
	st, err := h.RunStudy([]string{"179.art", "181.mcf"}, workloads.Train)
	if err != nil {
		t.Fatal(err)
	}
	if n := cb.submissions.Load(); n != 1 {
		t.Errorf("RunStudy of two programs made %d submissions, want 1", n)
	}
	for _, pd := range st.Programs {
		if pd.Train.Len() != fitOnceScale.TrainPoints || pd.Test.Len() != fitOnceScale.TestPoints {
			t.Errorf("%s: %d train and %d test rows, want %d and %d", pd.Workload.Key(),
				pd.Train.Len(), pd.Test.Len(), fitOnceScale.TrainPoints, fitOnceScale.TestPoints)
		}
	}
}

// The study keeps its own stage clock: after the pipeline's five stages each
// has taken time, the simulations fall in the stages that measure, and the
// stages, which never overlap, add up to no more than the wall time.
func TestStudyStagesClockThePipeline(t *testing.T) {
	h, _ := stubHarness(t)
	t0 := time.Now()
	st, err := h.RunStudy([]string{"179.art", "181.mcf"}, workloads.Train)
	if err != nil {
		t.Fatal(err)
	}
	results, err := st.SearchSettings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Fig7(results, nil); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0).Seconds()

	sg := st.Stages
	stages := []struct {
		name  string
		stage Stage
		sims  bool
	}{
		{"design", sg.Design, false},
		{"measure", sg.Measure, true},
		{"fit", sg.Fit, false},
		{"search", sg.Search, false},
		{"confirm", sg.Confirm, true},
	}
	sum := 0.0
	for _, s := range stages {
		if s.stage.Seconds <= 0 {
			t.Errorf("%s took %v s, want > 0", s.name, s.stage.Seconds)
		}
		if s.sims != (s.stage.Sims > 0) || s.stage.Sims < 0 {
			t.Errorf("%s ran %d simulations", s.name, s.stage.Sims)
		}
		sum += s.stage.Seconds
	}
	if sum > wall {
		t.Errorf("stages add up to %v s, more than the %v s wall time", sum, wall)
	}
	if got, want := sg.Measure.Sims+sg.Confirm.Sims, h.FarmStats().SimsExecuted; got != want {
		t.Errorf("stages count %d simulations, the plane ran %d", got, want)
	}
}

// A scale with no test points draws no test set and simulates none.
func TestRunStudyWithoutTestPoints(t *testing.T) {
	h, _ := stubHarness(t)
	h.Scale.TestPoints = 0
	var calls atomic.Int64
	h.Measure = func(ctx context.Context, job farm.Job) (farm.Result, error) {
		calls.Add(1)
		return surfaceStub(ctx, job)
	}
	st, err := h.RunStudy([]string{"179.art"}, workloads.Train)
	if err != nil {
		t.Fatal(err)
	}
	pd := st.Programs[0]
	if pd.Test != nil || pd.TestPoints != nil {
		t.Errorf("test set of %d points drawn at TestPoints 0", len(pd.TestPoints))
	}
	distinct := map[string]bool{}
	for _, p := range h.TrainDesign() {
		distinct[fmt.Sprint(p)] = true
	}
	if n := calls.Load(); n != int64(len(distinct)) {
		t.Errorf("%d simulations, want the %d distinct training points", n, len(distinct))
	}
}
