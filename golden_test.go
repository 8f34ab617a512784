package repro_test

// Golden determinism test: the exact Stats of the detailed simulator and the
// exact estimates of the SMARTS sampler, recorded from the reference
// implementation, asserted bit-for-bit. Any hot-path optimization (pre-decode,
// cache fast paths, trace replay) must leave every value below unchanged —
// this is the safety net performance work lands behind. CI runs it under
// -race along with the rest of the suite.
//
// To regenerate after an *intentional* model change (which invalidates all
// fitted models and cached measurements — think twice):
//
//	GOLDEN_UPDATE=1 go test -run TestGolden -v .

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
	"repro/internal/smarts"
	"repro/internal/workloads"
)

var goldenConfigs = []struct {
	name string
	cfg  func() sim.Config
}{
	{"constrained", sim.Constrained},
	{"typical", sim.DefaultConfig},
	{"aggressive", sim.Aggressive},
}

var goldenWorkloads = []string{"164.gzip", "179.art", "256.bzip2"}

type goldenSim struct {
	workload, config string
	stats            sim.Stats
}

type goldenSmarts struct {
	workload string
	offset   int64
	est      float64
	windows  int
	meanCPI  float64
	stdCPI   float64
	instrs   int64
	exit     int64
}

// goldenSimTable was recorded from the pre-predecode reference implementation
// (commit f5c1127) and must never drift.
var goldenSimTable = []goldenSim{
	{"164.gzip", "constrained", sim.Stats{Cycles: 2382754, Instructions: 2519506, Branches: 204983, Mispredicts: 16372, IL1Accesses: 1322128, IL1Misses: 139, DL1Accesses: 778230, DL1Misses: 38431, L2Accesses: 38570, L2Misses: 3801, Energy: 3.0754111999635114e+06, ExitValue: 1527069}},
	{"164.gzip", "typical", sim.Stats{Cycles: 1906974, Instructions: 2519506, Branches: 204983, Mispredicts: 16168, IL1Accesses: 1322128, IL1Misses: 138, DL1Accesses: 778230, DL1Misses: 32507, L2Accesses: 32645, L2Misses: 3504, Energy: 3.0493951999641377e+06, ExitValue: 1527069}},
	{"164.gzip", "aggressive", sim.Stats{Cycles: 1912961, Instructions: 2519506, Branches: 204983, Mispredicts: 15767, IL1Accesses: 1322128, IL1Misses: 138, DL1Accesses: 778230, DL1Misses: 8402, L2Accesses: 8540, L2Misses: 3504, Energy: 2.9754761999669364e+06, ExitValue: 1527069}},
	{"179.art", "constrained", sim.Stats{Cycles: 1527714, Instructions: 2217653, Branches: 129650, Mispredicts: 1013, IL1Accesses: 1176248, IL1Misses: 190, DL1Accesses: 431033, DL1Misses: 43056, L2Accesses: 43246, L2Misses: 715, Energy: 2.4333166999771306e+06, ExitValue: 375881}},
	{"179.art", "typical", sim.Stats{Cycles: 1295890, Instructions: 2217653, Branches: 129650, Mispredicts: 1013, IL1Accesses: 1176248, IL1Misses: 174, DL1Accesses: 431033, DL1Misses: 8857, L2Accesses: 9031, L2Misses: 715, Energy: 2.3306716999814566e+06, ExitValue: 375881}},
	{"179.art", "aggressive", sim.Stats{Cycles: 1391025, Instructions: 2217653, Branches: 129650, Mispredicts: 1013, IL1Accesses: 1176248, IL1Misses: 174, DL1Accesses: 431033, DL1Misses: 541, L2Accesses: 715, L2Misses: 715, Energy: 2.3057236999827125e+06, ExitValue: 375881}},
	{"256.bzip2", "constrained", sim.Stats{Cycles: 2367110, Instructions: 2258668, Branches: 169265, Mispredicts: 13775, IL1Accesses: 1241403, IL1Misses: 159, DL1Accesses: 620849, DL1Misses: 22310, L2Accesses: 22469, L2Misses: 452, Energy: 2.7123869999797917e+06, ExitValue: 701849781}},
	{"256.bzip2", "typical", sim.Stats{Cycles: 1729588, Instructions: 2258668, Branches: 169265, Mispredicts: 13639, IL1Accesses: 1241403, IL1Misses: 158, DL1Accesses: 620849, DL1Misses: 294, L2Accesses: 452, L2Misses: 452, Energy: 2.645791999983202e+06, ExitValue: 701849781}},
	{"256.bzip2", "aggressive", sim.Stats{Cycles: 1781848, Instructions: 2258668, Branches: 169265, Mispredicts: 13615, IL1Accesses: 1241403, IL1Misses: 158, DL1Accesses: 620849, DL1Misses: 294, L2Accesses: 452, L2Misses: 452, Energy: 2.6456959999832083e+06, ExitValue: 701849781}},
}

var goldenSmartsTable = []goldenSmarts{
	{"179.art", 0, 1.359221500441441e+06, 222, 0.6129099099099098, 0.5720262239554968, 2217653, 375881},
	{"179.art", 7, 1.2754501578378384e+06, 222, 0.5751351351351354, 0.1264670655761103, 2217653, 375881},
	{"179.art", 13, 1.2770684451621622e+06, 222, 0.5758648648648649, 0.12775116483568205, 2217653, 375881},
	{"181.mcf", 0, 2.967757716561492e+06, 431, 0.6899257540603265, 0.5747724206630193, 4301561, 7630048},
	{"181.mcf", 7, 2.8574369396279105e+06, 430, 0.6642790697674427, 0.2558393687163513, 4301561, 7630048},
	{"181.mcf", 13, 2.855976409613955e+06, 430, 0.6639395348837213, 0.2556064672722728, 4301561, 7630048},
}

func goldenKey(w, c string) string { return w + "/" + c }

// TestGoldenSimulate locks the detailed simulator's Stats bit-for-bit.
func TestGoldenSimulate(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	for _, wname := range goldenWorkloads {
		w := workloads.MustGet(wname, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range goldenConfigs {
			st, err := sim.Simulate(prog, gc.cfg(), 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if update {
				fmt.Printf("{%q, %q, sim.Stats{Cycles: %d, Instructions: %d, Branches: %d, Mispredicts: %d, IL1Accesses: %d, IL1Misses: %d, DL1Accesses: %d, DL1Misses: %d, L2Accesses: %d, L2Misses: %d, Energy: %v, ExitValue: %d}},\n",
					wname, gc.name, st.Cycles, st.Instructions, st.Branches, st.Mispredicts,
					st.IL1Accesses, st.IL1Misses, st.DL1Accesses, st.DL1Misses,
					st.L2Accesses, st.L2Misses, st.Energy, st.ExitValue)
				continue
			}
			found := false
			for _, g := range goldenSimTable {
				if g.workload == wname && g.config == gc.name {
					found = true
					if st != g.stats {
						t.Errorf("%s: Stats drifted:\n got %+v\nwant %+v", goldenKey(wname, gc.name), st, g.stats)
					}
				}
			}
			if !found {
				t.Errorf("%s: no golden entry", goldenKey(wname, gc.name))
			}
		}
	}
}

// TestTranslatedMatchesFused pins the basic-block translated engine
// bit-for-bit against the fused engine over the full golden workload/config
// grid, and checks the translation actually ran (no silent slow-path
// takeover).
func TestTranslatedMatchesFused(t *testing.T) {
	for _, wname := range goldenWorkloads {
		w := workloads.MustGet(wname, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range goldenConfigs {
			fused, _, err := sim.SimulateEngine(prog, gc.cfg(), 500_000_000, sim.EngineFused)
			if err != nil {
				t.Fatal(err)
			}
			bb, es, err := sim.SimulateEngine(prog, gc.cfg(), 500_000_000, sim.EngineBB)
			if err != nil {
				t.Fatal(err)
			}
			if bb != fused {
				t.Errorf("%s: bb engine diverged:\n got %+v\nwant %+v", goldenKey(wname, gc.name), bb, fused)
			}
			if es.BlocksTranslated == 0 {
				t.Errorf("%s: no blocks translated", goldenKey(wname, gc.name))
			}
			if es.TranslatedInstrs != fused.Instructions {
				t.Errorf("%s: translated %d of %d instructions (slow-path entries: %d)",
					goldenKey(wname, gc.name), es.TranslatedInstrs, fused.Instructions, es.SlowPathEntries)
			}
			if es.SlowPathEntries != 0 {
				t.Errorf("%s: unexpected slow-path entries: %d", goldenKey(wname, gc.name), es.SlowPathEntries)
			}
		}
	}
}

// TestWarmCheckpointRestoreEqualsRewarm pins checkpoint replay bit-for-bit
// against full rewarming: a checkpoint set built under one configuration
// must reproduce, for any configuration sharing its warm geometry, exactly
// the Result a full functional-warming Run computes — while doing a small
// fraction of the work (FunctionalInstrs is the only field allowed to
// differ, and it must shrink).
func TestWarmCheckpointRestoreEqualsRewarm(t *testing.T) {
	s := smarts.Sampler{WindowSize: 500, Interval: 20, Warmup: 200}
	build := sim.DefaultConfig()
	// Same warm geometry as build, different everything else: the
	// cross-configuration reuse the checkpoint key promises.
	nearby := build
	nearby.IssueWidth = 2
	nearby.RUUSize = 16
	nearby.DCacheLat = 3
	nearby.L2Lat = 16
	nearby.MemLat = 150

	for _, wname := range []string{"179.art", "181.mcf"} {
		w := workloads.MustGet(wname, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, 7} {
			sk := s
			sk.Offset = off
			store := smarts.NewStore(0)

			// Miss: the build run must equal a plain Run in every field.
			got, hit, err := smarts.RunCheckpointed(store, prog, build, sk, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Errorf("%s offset %d: first run reported a checkpoint hit", wname, off)
			}
			want, err := smarts.Run(prog, build, sk, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("%s offset %d: build run diverged from Run:\n got %+v\nwant %+v", wname, off, got, want)
			}

			// Hit under a nearby configuration: equal to full rewarming in
			// every field except the work done.
			rewarm, err := smarts.Run(prog, nearby, sk, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			replay, hit, err := smarts.RunCheckpointed(store, prog, nearby, sk, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Errorf("%s offset %d: nearby run missed the checkpoint", wname, off)
			}
			cmp := *replay
			cmp.FunctionalInstrs = rewarm.FunctionalInstrs
			if cmp != *rewarm {
				t.Errorf("%s offset %d: replay diverged from rewarm:\n got %+v\nwant %+v", wname, off, replay, rewarm)
			}
			if replay.FunctionalInstrs*2 >= rewarm.FunctionalInstrs {
				t.Errorf("%s offset %d: replay did not skip warming: %d of %d functional instrs",
					wname, off, replay.FunctionalInstrs, rewarm.FunctionalInstrs)
			}
			st := store.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
				t.Errorf("%s offset %d: store stats = %+v, want 1 hit / 1 miss / 1 entry", wname, off, st)
			}
		}
	}
}

// TestGoldenSMARTS locks the sampled estimate bit-for-bit across offsets.
func TestGoldenSMARTS(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	s := smarts.Sampler{WindowSize: 500, Interval: 20, Warmup: 200}
	for _, wname := range []string{"179.art", "181.mcf"} {
		w := workloads.MustGet(wname, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, 7, 13} {
			sk := s
			sk.Offset = off
			res, err := smarts.Run(prog, sim.DefaultConfig(), sk, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if update {
				fmt.Printf("{%q, %d, %v, %d, %v, %v, %d, %d},\n",
					wname, off, res.EstimatedCycles, res.Windows, res.MeanCPI, res.StdCPI,
					res.Instructions, res.ExitValue)
				continue
			}
			found := false
			for _, g := range goldenSmartsTable {
				if g.workload == wname && g.offset == off {
					found = true
					if res.EstimatedCycles != g.est || res.Windows != g.windows ||
						res.MeanCPI != g.meanCPI || res.StdCPI != g.stdCPI ||
						res.Instructions != g.instrs || res.ExitValue != g.exit {
						t.Errorf("%s offset %d: estimate drifted:\n got %+v\nwant %+v", wname, off, res, g)
					}
				}
			}
			if !found {
				t.Errorf("%s offset %d: no golden entry", wname, off)
			}
		}
	}
}
