package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/features"
	"repro/internal/wlgen"
	"repro/internal/workloads"
)

// crossDim is the pooled predictor dimensionality: the feature block
// followed by the 25 joint design variables.
var crossDim = features.NumFeatures() + doe.JointSpace().NumVars()

// crossStub is a deterministic synthetic measurement: cycles depend on both
// the program (through its source size) and the design point, so pooled
// models have genuine cross-program structure to learn, while each
// measurement costs nothing.
func crossStub(ctx context.Context, job farm.Job) (farm.Result, error) {
	c := 1000.0 + 2.0*float64(len(job.Workload.Source))
	for i, v := range job.Point {
		c += float64(i%7+1) * math.Abs(float64(v)) * 0.05
	}
	return farm.Result{Cycles: c, Energy: c / 2, Instructions: 1000}, nil
}

// crossCorpus builds the seven seed workloads plus n generated programs.
func crossCorpus(n int) []workloads.Workload {
	var ws []workloads.Workload
	for _, name := range workloads.Names() {
		ws = append(ws, workloads.MustGet(name, workloads.Train))
	}
	for _, p := range wlgen.Corpus(11, n) {
		ws = append(ws, p.Workload())
	}
	return ws
}

func TestBuildCrossDatasetShapeAndWorkerDeterminism(t *testing.T) {
	ws := crossCorpus(5)
	const pointsPer = 3

	build := func(workers int) *CrossDataset {
		h := NewHarness(Quick)
		h.Workers = workers
		h.Measure = crossStub
		defer h.Close()
		cd, err := h.BuildCrossDataset(ws, pointsPer)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cd
	}
	a := build(1)
	b := build(8)

	if a.Data.Len() != len(ws)*pointsPer {
		t.Fatalf("rows = %d, want %d", a.Data.Len(), len(ws)*pointsPer)
	}
	if a.Data.Dim() != crossDim {
		t.Fatalf("dim = %d, want %d", a.Data.Dim(), crossDim)
	}
	for i := range ws {
		if got := a.Spans[i]; got[1]-got[0] != pointsPer {
			t.Errorf("program %d span %v, want %d rows", i, got, pointsPer)
		}
	}
	for i := range a.Data.Y {
		if a.Data.Y[i] != b.Data.Y[i] {
			t.Fatalf("row %d response differs across worker counts", i)
		}
		for j := range a.Data.X[i] {
			if a.Data.X[i][j] != b.Data.X[i][j] {
				t.Fatalf("row %d col %d differs across worker counts", i, j)
			}
		}
	}
}

// TestLOPOEndToEndOnGeneratedCorpus is the acceptance path: a
// wlgen-augmented corpus of 100 generated programs plus the seed suite,
// pooled through BuildCrossDataset (stub measurements), evaluated
// leave-one-program-out with held-out error reported per model kind.
func TestLOPOEndToEndOnGeneratedCorpus(t *testing.T) {
	ws := crossCorpus(100)
	h := NewHarness(Quick)
	h.Measure = crossStub
	defer h.Close()

	cd, err := h.BuildCrossDataset(ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Programs) < 100 {
		t.Fatalf("corpus has %d programs, want >= 100", len(cd.Programs))
	}
	if cd.Data.Len() != len(ws)*4 {
		t.Fatalf("pooled rows = %d, want %d", cd.Data.Len(), len(ws)*4)
	}

	res, err := h.RunLOPO(cd, LOPOOptions{
		MaxFolds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("folds = %d, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		for kind, e := range map[string]float64{"linear": r.Linear, "mars": r.MARS, "rbf": r.RBF} {
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Errorf("%s: %s held-out error %v not a finite percentage", r.Program, kind, e)
			}
		}
		if !math.IsNaN(r.Baseline) {
			t.Errorf("%s: baseline computed without being requested", r.Program)
		}
	}
	table := res.LOPOTable()
	if !strings.Contains(table, "Leave-one-program-out") || !strings.Contains(table, res.Rows[0].Program) {
		t.Errorf("table missing content:\n%s", table)
	}
}

func TestLOPOBaselineFitsWithEnoughRows(t *testing.T) {
	ws := crossCorpus(0) // just the seven seeds
	h := NewHarness(Quick)
	h.Measure = crossStub
	defer h.Close()

	cd, err := h.BuildCrossDataset(ws, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunLOPO(cd, LOPOOptions{
		MaxFolds: 1,
		Baseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if math.IsNaN(r.Baseline) || math.IsInf(r.Baseline, 0) {
		t.Fatalf("baseline should be fittable on 40 own rows, got %v", r.Baseline)
	}
	if !strings.Contains(res.LOPOTable(), "Own-fit baseline") {
		t.Error("table missing baseline column")
	}
}

// TestCrossRowLayout pins the pooled row layout: coded features first,
// coded joint point after — the contract the serving path depends on.
func TestCrossRowLayout(t *testing.T) {
	w := workloads.MustGet("179.art", workloads.Train)
	f, err := features.Extract(w)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(Quick)
	pts := h.CrossDesign(w, 1)
	coded := h.Space().Code(pts[0])
	row := CrossRow(f, coded)
	if len(row) != crossDim {
		t.Fatalf("row dim = %d, want %d", len(row), crossDim)
	}
	for i, c := range f.Code() {
		if row[i] != c {
			t.Fatalf("feature block mismatch at %d", i)
		}
	}
	for i, c := range coded {
		if row[features.NumFeatures()+i] != c {
			t.Fatalf("point block mismatch at %d", i)
		}
	}
}
