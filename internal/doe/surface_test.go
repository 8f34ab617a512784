package doe

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestResponseSurfaceMonotone holds the shape PAPER.md's substitution table
// promises of the simulator (cache-size knees, RUU saturation, latency
// slopes), which bb ≡ feed alone does not: at seeded Latin-hypercube joint
// points, one per workload, each binary is compiled once and every
// microarchitectural variable but issue width is stepped one level
// "better". Cycles must not rise for the cache sizes, the three latencies
// and the RUU (beyond +0.01 %), may rise by +0.1 % for a larger predictor
// (more entries train more slowly), and by +5 % for a more associative L1D
// or L2, which at the same size has half the sets (164.gzip's first point
// of a two-point draw reads +0.43 % for L2 associativity 1 → 2). Each variable but
// the L2's size and associativity (the train inputs fit the smallest L2)
// must also lower cycles at some point, or it has stopped mattering.
func TestResponseSurfaceMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload about ten times")
	}
	space := JointSpace()
	names := workloads.Names()
	if raceEnabled {
		names = names[:2]
	}
	pts := space.LatinHypercube(len(names), rand.New(rand.NewSource(1)))
	const larger, smaller = +1, -1
	steps := []struct {
		name  string
		dir   int     // the level step that should not slow the program
		tol   float64 // allowed relative rise of cycles
		moves bool    // some step must lower cycles
	}{
		{"bpred-size", larger, 1e-3, true},
		{"ruu-size", larger, 1e-4, true},
		{"icache-kb", larger, 1e-4, true},
		{"dcache-kb", larger, 1e-4, true},
		{"dcache-assoc", larger, 5e-2, true},
		{"dcache-lat", smaller, 1e-4, true},
		{"l2-kb", larger, 1e-4, false},
		{"l2-assoc", larger, 5e-2, false},
		{"l2-lat", smaller, 1e-4, true},
		{"mem-lat", smaller, 1e-4, true},
	}
	index := map[string]int{}
	for i, v := range space.Vars {
		index[v.Name] = i
	}
	worst, best := map[string]float64{}, map[string]float64{} // per variable
	for wi, name := range names {
		w := workloads.MustGet(name, workloads.Train)
		p := pts[wi]
		cfg := ToConfig(p)
		bin, _, err := compiler.Compile(w.Parse(), ToOptions(p, cfg.IssueWidth))
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []sim.Config{cfg}
		type step struct {
			si int   // index into steps
			to int64 // the stepped variable's new value
		}
		var stepped []step // one per cfgs[1:]
		for si, s := range steps {
			i := index[s.name]
			levels := space.Levels(i)
			for li, v := range levels {
				if v == p[i] && li+s.dir >= 0 && li+s.dir < len(levels) {
					q := append(Point{}, p...)
					q[i] = levels[li+s.dir]
					cfgs = append(cfgs, ToConfig(q))
					stepped = append(stepped, step{si, q[i]})
				}
			}
		}
		stats, err := sim.SimulateMany(bin, cfgs, 1<<31)
		if err != nil {
			t.Fatal(err)
		}
		base := float64(stats[0].Cycles)
		for k, st := range stepped {
			s := steps[st.si]
			rise := float64(stats[k+1].Cycles)/base - 1
			if r, ok := worst[s.name]; !ok || rise > r {
				worst[s.name] = rise
			}
			if r, ok := best[s.name]; !ok || rise < r {
				best[s.name] = rise
			}
			if rise > s.tol {
				t.Errorf("%s: %s %d → %d raised cycles by %+.4f %% (tolerance %+.4f %%)",
					name, s.name, p[index[s.name]], st.to, 100*rise, 100*s.tol)
			}
		}
	}
	for _, s := range steps {
		t.Logf("%-12s steps %+.4f %% to %+.4f %%", s.name, 100*best[s.name], 100*worst[s.name])
		if s.moves && best[s.name] >= 0 {
			t.Errorf("%s: no step lowered cycles; the variable no longer reaches the timing model", s.name)
		}
	}
}
