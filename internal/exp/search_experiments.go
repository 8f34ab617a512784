package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// NamedConfig is one of the paper's three reference microarchitectures
// (Table 5).
type NamedConfig struct {
	Name   string
	Config sim.Config
}

// NamedConfigs returns the constrained, typical and aggressive
// configurations of Table 5.
func NamedConfigs() []NamedConfig {
	return []NamedConfig{
		{"constrained", sim.Constrained()},
		{"typical", sim.DefaultConfig()},
		{"aggressive", sim.Aggressive()},
	}
}

// Table5 renders the reference configurations.
func Table5() string {
	t := newTable("Table 5: micro-architectural configurations used for model-based search")
	t.row("Parameter", "Constrained", "Typical", "Aggressive")
	cs := NamedConfigs()
	get := func(f func(sim.Config) int) []string {
		var out []string
		for _, c := range cs {
			out = append(out, fmt.Sprint(f(c.Config)))
		}
		return out
	}
	rows := []struct {
		name string
		f    func(sim.Config) int
	}{
		{"Issue width", func(c sim.Config) int { return c.IssueWidth }},
		{"Branch predictor size", func(c sim.Config) int { return c.BPredSize }},
		{"Register update unit size", func(c sim.Config) int { return c.RUUSize }},
		{"Instruction cache size (KB)", func(c sim.Config) int { return c.ICacheKB }},
		{"Data cache size (KB)", func(c sim.Config) int { return c.DCacheKB }},
		{"Data cache associativity", func(c sim.Config) int { return c.DCacheAssoc }},
		{"Data cache latency", func(c sim.Config) int { return c.DCacheLat }},
		{"Unified L2 cache size (KB)", func(c sim.Config) int { return c.L2KB }},
		{"Unified L2 cache associativity", func(c sim.Config) int { return c.L2Assoc }},
		{"Unified L2 cache latency", func(c sim.Config) int { return c.L2Lat }},
		{"Memory latency", func(c sim.Config) int { return c.MemLat }},
	}
	for _, r := range rows {
		vals := get(r.f)
		t.row(r.name, vals[0], vals[1], vals[2])
	}
	return t.String()
}

// SearchResult is the GA outcome for one program on one configuration.
type SearchResult struct {
	Program   string
	Config    string
	Point     doe.Point // joint point: GA compiler block + frozen microarch
	Predicted float64   // model-predicted cycles at Point
}

// SearchSettings runs the model-based GA search (paper Section 6.3) for
// every program in the study on each named configuration, using the RBF
// models as the search surrogate (as the paper does for Table 6).
func (s *Study) SearchSettings(configs []NamedConfig) ([]SearchResult, error) {
	return s.SearchSettingsCtx(context.Background(), configs)
}

// SearchSettingsCtx is SearchSettings with cancellation: the GA checks ctx
// between generations, so Ctrl-C (or a disconnected service client) stops
// the search promptly instead of finishing every remaining generation.
func (s *Study) SearchSettingsCtx(ctx context.Context, configs []NamedConfig) ([]SearchResult, error) {
	if configs == nil {
		configs = NamedConfigs()
	}
	defer s.Harness.clock(&s.Stages.Search)()
	var out []SearchResult
	for _, pd := range s.Programs {
		m := s.Models[pd.Workload.Key()]["rbf"]
		for _, nc := range configs {
			rng := s.Harness.rngFor("ga-" + pd.Workload.Key() + "-" + nc.Name)
			res, err := search.FindCompilerSettingsCtx(
				ctx, s.Harness.Space(), m, doe.FromConfig(nc.Config),
				search.GAOptions{
					Population:  s.Harness.Scale.GAPopulation,
					Generations: s.Harness.Scale.GAGenerations,
				}, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, SearchResult{
				Program:   pd.Workload.Key(),
				Config:    nc.Name,
				Point:     res.Point,
				Predicted: res.Predicted,
			})
		}
	}
	return out, nil
}

// Table6 renders the GA-prescribed flag and heuristic settings in the
// paper's constrained/typical/aggressive format, one column per parameter.
func Table6(results []SearchResult, space *doe.Space) string {
	t := newTable("Table 6: optimization settings prescribed by model-based search\n" +
		"(constrained/typical/aggressive)")
	hdr := []string{"Program-Input"}
	for i := 0; i < doe.NumCompilerVars; i++ {
		hdr = append(hdr, fmt.Sprint(i+1))
	}
	t.row(hdr...)

	byProgram := map[string]map[string]doe.Point{}
	var progOrder []string
	for _, r := range results {
		if byProgram[r.Program] == nil {
			byProgram[r.Program] = map[string]doe.Point{}
			progOrder = append(progOrder, r.Program)
		}
		byProgram[r.Program][r.Config] = r.Point
	}
	order := []string{"constrained", "typical", "aggressive"}
	for _, prog := range progOrder {
		cells := []string{prog}
		for v := 0; v < doe.NumCompilerVars; v++ {
			var parts []string
			for _, cfg := range order {
				p, ok := byProgram[prog][cfg]
				if !ok {
					continue
				}
				parts = append(parts, fmt.Sprint(p[v]))
			}
			cells = append(cells, strings.Join(parts, "/"))
		}
		t.row(cells...)
	}
	// Reference row: the paper's default O3.
	o3 := doe.FromOptions(compiler.O3())
	cells := []string{"default O3"}
	for v := 0; v < doe.NumCompilerVars; v++ {
		cells = append(cells, fmt.Sprintf("%d/%d/%d", o3[v], o3[v], o3[v]))
	}
	t.row(cells...)
	return t.String()
}

// marchesByName returns the microarchitecture block of each configuration
// (NamedConfigs when configs is nil) by name.
func marchesByName(configs []NamedConfig) map[string]doe.Point {
	if configs == nil {
		configs = NamedConfigs()
	}
	out := map[string]doe.Point{}
	for _, nc := range configs {
		out[nc.Name] = doe.FromConfig(nc.Config)
	}
	return out
}

// SpeedupRow is one program × configuration speedup measurement (Figure 7).
type SpeedupRow struct {
	Program string
	Config  string
	// Speedups over the -O2 baseline (1.10 = 10% faster).
	PredictedGA float64 // model-predicted speedup at the GA point
	ActualGA    float64 // measured speedup at the GA point
	ActualO3    float64 // measured speedup of default -O3
}

// Fig7 reproduces Figure 7: predicted and actual speedup over -O2 at the
// GA-prescribed settings, with default -O3 for comparison, per program and
// configuration. It reuses the search results and performs the three
// measurements per cell.
func (s *Study) Fig7(results []SearchResult, configs []NamedConfig) (string, []SpeedupRow, error) {
	marches := marchesByName(configs)
	wlByKey := map[string]workloads.Workload{}
	for _, pd := range s.Programs {
		wlByKey[pd.Workload.Key()] = pd.Workload
	}

	// The three measurements of every cell go to the farm as one batch.
	var cells []SearchResult
	var jobs []farm.Job
	for _, r := range results {
		w, ok := wlByKey[r.Program]
		if !ok {
			continue
		}
		march := marches[r.Config]
		cells = append(cells, r)
		jobs = append(jobs,
			farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(compiler.O2()), march)},
			farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(compiler.O3()), march)},
			farm.Job{Workload: w, Point: r.Point},
		)
	}
	measured, err := s.confirm(jobs)
	if err != nil {
		return "", nil, err
	}

	var rows []SpeedupRow
	t := newTable("Figure 7: speedup over -O2 at model-prescribed settings")
	t.row("Benchmark-Input", "Config", "Predicted", "Actual", "O3 actual")
	for i, r := range cells {
		o2Point := jobs[3*i].Point
		o2Cycles, o3Cycles, gaCycles := measured[3*i].Cycles, measured[3*i+1].Cycles, measured[3*i+2].Cycles
		m := s.Models[r.Program]["rbf"]
		predO2 := m.Predict(s.Harness.Space().Code(o2Point))
		row := SpeedupRow{
			Program:     r.Program,
			Config:      r.Config,
			PredictedGA: predO2 / r.Predicted,
			ActualGA:    o2Cycles / gaCycles,
			ActualO3:    o2Cycles / o3Cycles,
		}
		rows = append(rows, row)
		t.row(row.Program, row.Config, f2(row.PredictedGA), f2(row.ActualGA), f2(row.ActualO3))
	}
	return t.String(), rows, nil
}

// confirm measures a search's confirmation jobs as one batch on the Confirm
// stage's clock and checkpoints the store.
func (s *Study) confirm(jobs []farm.Job) ([]farm.Result, error) {
	defer s.Harness.clock(&s.Stages.Confirm)()
	res, err := s.Harness.measureAll("confirm", jobs)
	if err == nil {
		s.Harness.checkpoint()
	}
	return res, err
}

// Table7Row is one profile-guided speedup result.
type Table7Row struct {
	Program     string
	Constrained float64 // % speedup over -O2 on the ref input
	Typical     float64
	Aggressive  float64
}

// Table7 reproduces the paper's Table 7: the profile-guided scenario. The
// models (and GA settings) come from the train input; the speedup is
// measured on the ref input — testing whether train-input models transfer.
func (s *Study) Table7(results []SearchResult, configs []NamedConfig) (string, []Table7Row, error) {
	marches := marchesByName(configs)

	// Every ref workload is resolved before anything is measured; the two
	// measurements of every cell then go to the farm as one batch.
	var jobs []farm.Job
	for _, r := range results {
		w, err := workloads.Get(strings.SplitN(r.Program, "-", 2)[0], workloads.Ref)
		if err != nil {
			return "", nil, err
		}
		march := marches[r.Config]
		jobs = append(jobs,
			farm.Job{Workload: w, Point: doe.JoinPoint(doe.FromOptions(compiler.O2()), march)},
			farm.Job{Workload: w, Point: doe.JoinPoint(r.Point[:doe.NumCompilerVars], march)},
		)
	}
	measured, err := s.confirm(jobs)
	if err != nil {
		return "", nil, err
	}

	speedups := map[string]map[string]float64{}
	var progOrder []string
	for i, r := range results {
		o2Cycles, gaCycles := measured[2*i].Cycles, measured[2*i+1].Cycles
		if speedups[r.Program] == nil {
			speedups[r.Program] = map[string]float64{}
			progOrder = append(progOrder, r.Program)
		}
		speedups[r.Program][r.Config] = 100 * (o2Cycles/gaCycles - 1)
	}

	t := newTable("Table 7: actual speedup over -O2 (%) in the profile-guided scenario\n" +
		"(models built on train inputs, speedups measured on ref inputs)")
	t.row("Program", "Constrained", "Typical", "Aggressive")
	var rows []Table7Row
	var sums Table7Row
	for _, prog := range progOrder {
		sp := speedups[prog]
		row := Table7Row{
			Program:     prog,
			Constrained: sp["constrained"],
			Typical:     sp["typical"],
			Aggressive:  sp["aggressive"],
		}
		rows = append(rows, row)
		sums.Constrained += row.Constrained
		sums.Typical += row.Typical
		sums.Aggressive += row.Aggressive
		t.row(prog, f2(row.Constrained), f2(row.Typical), f2(row.Aggressive))
	}
	if n := float64(len(rows)); n > 0 {
		t.row("Average", f2(sums.Constrained/n), f2(sums.Typical/n), f2(sums.Aggressive/n))
	}
	return t.String(), rows, nil
}
