package exp

import (
	"testing"

	"repro/internal/workloads"
)

func TestStudyRefine(t *testing.T) {
	if testing.Short() {
		t.Skip("refinement loop in -short mode")
	}
	sc := tinyScale
	sc.TrainPoints, sc.TestPoints = 20, 0
	h := NewHarness(sc)
	defer h.Close()
	st, err := h.RunStudy([]string{"256.bzip2"}, workloads.Train)
	if err != nil {
		t.Fatal(err)
	}
	sims := st.Stages.Measure.Sims
	hist, err := st.Refine(8.0, 15, 65)
	if err != nil {
		t.Fatal(err)
	}
	pd := st.Programs[0]
	history := hist[pd.Workload.Key()]
	if len(history) < 1 {
		t.Fatal("no history")
	}
	if len(pd.TrainPoints) < 20 || pd.Train.Len() != len(pd.TrainPoints) {
		t.Fatalf("refinement left %d points and %d rows", len(pd.TrainPoints), pd.Train.Len())
	}
	// The design must only grow, and each iteration is recorded.
	for i := 1; i < len(history); i++ {
		if history[i].Points <= history[i-1].Points {
			t.Fatal("design should grow monotonically")
		}
	}
	last := history[len(history)-1]
	if last.CVError > 8.0 && last.Points+15 <= 65 {
		t.Fatalf("loop stopped early: %+v", history)
	}
	if last.Points != len(pd.TrainPoints) {
		t.Fatalf("history ends at %d points, the study at %d", last.Points, len(pd.TrainPoints))
	}
	t.Logf("history: %+v", history)

	// Only the added points are simulated: the study's own are store hits.
	if got, want := st.Stages.Measure.Sims-sims, int64(len(pd.TrainPoints)-20); got != want {
		t.Fatalf("refinement simulated %d points, added %d", got, want)
	}
	// The study's models are the fits of its final rows.
	want, err := FitAllParallel(pd.Train, h.Workers)
	if err != nil {
		t.Fatal(err)
	}
	for kind, m := range want {
		sameBits(t, kind, st.Models[pd.Workload.Key()][kind], m, pd.Train.X)
	}

	if _, err := st.Refine(5, 0, 65); err == nil {
		t.Fatal("invalid sizes should error")
	}
}
