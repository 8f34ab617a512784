package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/lang"
	"repro/internal/sim"
)

// invariantBudget bounds each run of FuzzSimInvariants; generated programs
// halt long before it.
const invariantBudget = 1 << 26

// FuzzSimInvariants generates a MiniC program from the seed with
// lang.GenProgram, compiles it at -O2 and -O3, and runs it with Simulate on
// a configuration that draw picks from Table 2's box. Every engine shares
// cache.go, bpred.go and config.go, so FuzzEnginesAgree cannot see a fault
// there; this target holds the Stats to relations that need no second
// simulator:
//   - Instructions ≤ Cycles·IssueWidth;
//   - Mispredicts ≤ Branches, and misses ≤ accesses at every level;
//   - L2Accesses == IL1Misses + DL1Misses;
//   - with MemLat doubled, every count and ExitValue is the same, and Cycles
//     falls by at most 0.1 %;
//   - with DCacheKB doubled (and L2Lat + 4, DCacheLat + 1), the program and
//     both L1s see the same accesses and DL1Misses does not rise: LRU with
//     the same associativity over twice the sets keeps every line the
//     smaller cache keeps.
//
// A run that faults (budget overruns included) must fault the same way under
// both changes. The committed corpus under testdata/fuzz runs as a plain
// test; explore with `go test ./internal/sim -run '^$' -fuzz FuzzSimInvariants`.
func FuzzSimInvariants(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(4), int64(3))
	space := doe.JointSpace()
	f.Fuzz(func(t *testing.T, seed, draw int64) {
		src := lang.GenProgram(rand.New(rand.NewSource(seed)))
		cfg := doe.ToConfig(space.RandomPoint(rand.New(rand.NewSource(draw))))
		slowMem := cfg
		slowMem.MemLat *= 2
		bigDL1 := cfg
		bigDL1.DCacheKB *= 2
		bigDL1.L2Lat += 4
		bigDL1.DCacheLat++
		for _, opts := range []compiler.Options{compiler.O2(), compiler.O3()} {
			prog, _, err := compiler.CompileSource(src, opts)
			if err != nil {
				t.Fatalf("seed %d does not compile: %v", seed, err)
			}
			st, err := sim.Simulate(prog, cfg, invariantBudget)
			slow, slowErr := sim.Simulate(prog, slowMem, invariantBudget)
			big, bigErr := sim.Simulate(prog, bigDL1, invariantBudget)
			if !sameFault(slowErr, err) || !sameFault(bigErr, err) {
				t.Fatalf("%+v: fault %v; MemLat doubled %v; DCacheKB doubled %v", cfg, err, slowErr, bigErr)
			}
			if err != nil {
				continue
			}
			checkStats(t, "base", cfg, st)
			checkStats(t, "MemLat doubled", slowMem, slow)
			checkStats(t, "DCacheKB doubled", bigDL1, big)

			if counts(slow) != counts(st) {
				t.Errorf("%+v: MemLat doubled changes the counts:\n got  %+v\n base %+v", cfg, counts(slow), counts(st))
			}
			if float64(slow.Cycles) < 0.999*float64(st.Cycles) {
				t.Errorf("%+v: MemLat doubled cuts cycles %d → %d", cfg, st.Cycles, slow.Cycles)
			}
			if accesses(big) != accesses(st) {
				t.Errorf("%+v: DCacheKB doubled changes the accesses:\n got  %+v\n base %+v", cfg, accesses(big), accesses(st))
			}
			if big.DL1Misses > st.DL1Misses {
				t.Errorf("%+v: DCacheKB doubled raises DL1 misses %d → %d", cfg, st.DL1Misses, big.DL1Misses)
			}
		}
	})
}

// checkStats fails unless st satisfies the relations one run must hold.
func checkStats(t *testing.T, run string, cfg sim.Config, st sim.Stats) {
	t.Helper()
	switch {
	case st.Instructions > st.Cycles*int64(cfg.IssueWidth):
		t.Errorf("%s %+v: %d instructions in %d cycles at width %d", run, cfg, st.Instructions, st.Cycles, cfg.IssueWidth)
	case st.Mispredicts > st.Branches:
		t.Errorf("%s %+v: %d mispredicts of %d branches", run, cfg, st.Mispredicts, st.Branches)
	case st.IL1Misses > st.IL1Accesses || st.DL1Misses > st.DL1Accesses || st.L2Misses > st.L2Accesses:
		t.Errorf("%s %+v: more misses than accesses: %+v", run, cfg, st)
	case st.L2Accesses != st.IL1Misses+st.DL1Misses:
		t.Errorf("%s %+v: %d L2 accesses for %d IL1 and %d DL1 misses", run, cfg, st.L2Accesses, st.IL1Misses, st.DL1Misses)
	}
}

// counts is Stats without its timing: what a latency must not change.
func counts(st sim.Stats) sim.Stats {
	st.Cycles, st.Energy = 0, 0
	return st
}

// accesses is what a larger DL1 must not change: the program's path and
// what each L1 is asked for.
func accesses(st sim.Stats) [5]int64 {
	return [5]int64{st.Instructions, st.Branches, st.ExitValue, st.IL1Accesses, st.DL1Accesses}
}
