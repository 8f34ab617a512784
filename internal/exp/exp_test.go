package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// measureOne is MeasureBatch on one point.
func measureOne(b farm.Backend, w workloads.Workload, p doe.Point, resp farm.Response) (float64, error) {
	v, err := b.MeasureBatch(context.Background(), w, []doe.Point{p}, resp)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// tinyScale keeps pipeline tests fast; statistical quality is covered by the
// benchmark harness at larger scales.
var tinyScale = Scale{
	Name: "tiny", TrainPoints: 30, TestPoints: 10,
	GAPopulation: 16, GAGenerations: 6,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestMeasureCyclesCachesAndIsDeterministic(t *testing.T) {
	h := NewHarness(tinyScale)
	w := workloads.MustGet("179.art", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	a, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a <= 0 {
		t.Fatalf("measurements: %v, %v", a, b)
	}

	h2 := NewHarness(tinyScale)
	c, err := measureOne(h2.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("fresh harness disagrees: %v vs %v", c, a)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := NewHarness(tinyScale)
	h.CacheDir = dir
	w := workloads.MustGet("256.bzip2", workloads.Train)
	p := doe.JoinPoint(doe.FromOptions(compiler.O0()), doe.FromConfig(sim.Constrained()))
	a, err := measureOne(h.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SaveCache(); err != nil {
		t.Fatal(err)
	}
	// A new harness must hit the disk cache (we can't observe the skip
	// directly, but the value must round-trip).
	h2 := NewHarness(tinyScale)
	h2.CacheDir = dir
	b, err := measureOne(h2.Farm(), w, p, farm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("disk cache mismatch: %v vs %v", a, b)
	}
}

func TestDesignsAreDeterministic(t *testing.T) {
	h1 := NewHarness(tinyScale)
	h2 := NewHarness(tinyScale)
	a, b := h1.TrainDesign(), h2.TrainDesign()
	if len(a) != tinyScale.TrainPoints {
		t.Fatalf("train design size %d", len(a))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("train designs differ across harnesses with same seed")
			}
		}
	}
	if len(h1.TestDesign()) != tinyScale.TestPoints {
		t.Fatal("test design size")
	}
}

// TrainDesign runs the exchange once per harness: a second call returns the
// memoized slice itself, and a change of seed or size builds a new design.
func TestTrainDesignMemoized(t *testing.T) {
	h := NewHarness(tinyScale)
	a, b := h.TrainDesign(), h.TrainDesign()
	if &a[0] != &b[0] {
		t.Fatal("second TrainDesign call rebuilt the design")
	}
	if cap(a) != len(a) {
		t.Fatalf("memoized design has spare capacity %d > %d: an append would write into it", cap(a), len(a))
	}
	h.Seed = 2
	c := h.TrainDesign()
	if &c[0] == &a[0] {
		t.Fatal("TrainDesign kept the design of another seed")
	}
	other := NewHarness(tinyScale)
	other.Seed = 2
	if !reflect.DeepEqual(c, other.TrainDesign()) {
		t.Fatal("re-seeded harness built a different design from a fresh one")
	}
	h.Scale.TrainPoints++
	if d := h.TrainDesign(); len(d) != tinyScale.TrainPoints+1 {
		t.Fatalf("design of %d points after TrainPoints grew to %d", len(d), tinyScale.TrainPoints+1)
	}
}

// TestFullPipelineTiny runs the entire reproduction pipeline end to end at a
// tiny scale: study → Table 3 → Table 4 → GA search → Table 6 → Figure 7 →
// Table 7, checking structural properties rather than statistical quality.
func TestFullPipelineTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	h := NewHarness(tinyScale)
	st, err := h.RunStudy([]string{"179.art", "255.vortex"}, workloads.Train)
	if err != nil {
		t.Fatal(err)
	}

	txt, rows := st.Table3()
	if len(rows) != 2 || !strings.Contains(txt, "RBF-RT") {
		t.Fatalf("table3 malformed:\n%s", txt)
	}
	for _, r := range rows {
		if r.Linear <= 0 || r.MARS <= 0 || r.RBF <= 0 {
			t.Errorf("%s: non-positive errors: %+v", r.Program, r)
		}
	}

	t4, cells := st.Table4(6)
	if len(cells) == 0 || !strings.Contains(t4, "Parameter/interaction") {
		t.Fatalf("table4 malformed:\n%s", t4)
	}

	f6, pairs := st.Fig6(nil)
	if len(pairs["179.art-train"]) != tinyScale.TestPoints {
		t.Fatalf("fig6 pairs: %d", len(pairs["179.art-train"]))
	}
	if !strings.Contains(f6, "Correlation") {
		t.Fatal("fig6 format")
	}

	results, err := st.SearchSettings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*3 {
		t.Fatalf("expected 6 search results, got %d", len(results))
	}
	for _, r := range results {
		// Microarch block must equal the named config.
		var cfg sim.Config
		for _, nc := range NamedConfigs() {
			if nc.Name == r.Config {
				cfg = nc.Config
			}
		}
		march := doe.FromConfig(cfg)
		for i, v := range march {
			if r.Point[doe.NumCompilerVars+i] != v {
				t.Fatalf("%s/%s: microarch not frozen", r.Program, r.Config)
			}
		}
	}
	t6 := Table6(results, h.Space())
	if !strings.Contains(t6, "default O3") {
		t.Fatalf("table6 missing O3 row:\n%s", t6)
	}

	f7, srows, err := st.Fig7(results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 6 || !strings.Contains(f7, "speedup") {
		t.Fatalf("fig7 malformed:\n%s", f7)
	}
	for _, r := range srows {
		if r.ActualGA <= 0 || r.PredictedGA <= 0 || r.ActualO3 <= 0 {
			t.Errorf("non-positive speedups: %+v", r)
		}
	}

	t7, trows, err := st.Table7(results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trows) != 2 || !strings.Contains(t7, "profile-guided") {
		t.Fatalf("table7 malformed:\n%s", t7)
	}
}

func TestTable5Static(t *testing.T) {
	txt := Table5()
	for _, want := range []string{"Constrained", "Typical", "Aggressive", "Issue width", "Memory latency"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table5 missing %q", want)
		}
	}
}

func TestFig3SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 sweep in -short mode")
	}
	h := NewHarness(tinyScale)
	txt, res, err := h.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 7*5 {
		t.Fatalf("fig3 cells: %d", len(res.Cells))
	}
	if !strings.Contains(txt, "linear@8KB") {
		t.Fatal("fig3 format")
	}
	// One pass: the grid is read from the batch's answer, not re-asked for
	// point by point from the store the batch has just filled.
	if st := h.FarmStats(); st.CacheMisses != 35 || st.CacheHits != 0 {
		t.Errorf("fig3 on a fresh store: %d misses, %d hits, want 35 and 0", st.CacheMisses, st.CacheHits)
	}
	// The unrolling response must be non-monotone at some icache size:
	// moderate unrolling beats none, extreme unrolling is worse than the
	// minimum (the paper's headline shape).
	byIC := map[int]map[int]float64{}
	for _, c := range res.Cells {
		if byIC[c.ICacheKB] == nil {
			byIC[c.ICacheKB] = map[int]float64{}
		}
		byIC[c.ICacheKB][c.UnrollTimes] = c.Cycles
	}
	shapeOK := false
	for _, m := range byIC {
		base := m[1]
		best, worst := base, base
		for _, v := range m {
			if v < best {
				best = v
			}
			if v > worst {
				worst = v
			}
		}
		if best < base && m[12] > best {
			shapeOK = true
		}
	}
	if !shapeOK {
		t.Log(txt)
		t.Error("expected non-monotone unrolling response at some icache size")
	}
}
