package sim_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func manyConfigs() []sim.Config {
	narrow := sim.Constrained()
	narrow.IssueWidth = 1 // exercise the 1-unit FU argmin and issue-width-1 ring
	return []sim.Config{sim.DefaultConfig(), sim.Aggressive(), sim.Constrained(), narrow}
}

// TestSimulateManyMatchesSimulate is the tentpole identity test: one shared
// functional interpretation feeding a timing consumer per configuration
// must be bit-for-bit equal — cycles, energy, exit value, every counter —
// to independent Simulate runs, for a 3-workload × 4-config grid. Run under
// -race this also exercises the chunk hand-off between the producer and
// the concurrent consumers.
func TestSimulateManyMatchesSimulate(t *testing.T) {
	cfgs := manyConfigs()
	for _, name := range []string{"179.art", "181.mcf", "164.gzip"} {
		w := workloads.MustGet(name, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		shared, err := sim.SimulateMany(prog, cfgs, 500_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(shared) != len(cfgs) {
			t.Fatalf("%s: got %d results for %d configs", name, len(shared), len(cfgs))
		}
		for k, cfg := range cfgs {
			solo, err := sim.Simulate(prog, cfg, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if shared[k] != solo {
				t.Errorf("%s cfg %d:\nshared %+v\nsolo   %+v", name, k, shared[k], solo)
			}
		}
	}
}

// TestSimulateManyRounds pins the consumer-cap split: a batch of 17
// configurations runs as one broadcast round of 16 plus a last round of one
// (which degrades to Simulate) and must still match independent runs.
func TestSimulateManyRounds(t *testing.T) {
	base := manyConfigs()
	cfgs := make([]sim.Config, 17)
	for k := range cfgs {
		cfgs[k] = base[k%len(base)]
		cfgs[k].MemLat += k // distinct timing per slot, so a misplaced result shows
	}
	w := workloads.MustGet("179.art", workloads.Train)
	prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	split, err := sim.SimulateMany(prog, cfgs, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		solo, err := sim.Simulate(prog, cfg, 500_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if split[k] != solo {
			t.Errorf("cfg %d:\nsplit %+v\nsolo  %+v", k, split[k], solo)
		}
	}
}

// TestSimulateManyBudget pins the typed budget fault on the shared path.
func TestSimulateManyBudget(t *testing.T) {
	w := workloads.MustGet("179.art", workloads.Train)
	prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.SimulateMany(prog, manyConfigs(), 100)
	if err == nil {
		t.Fatal("expected budget overrun")
	}
	if !sim.IsBudget(err) {
		t.Fatalf("IsBudget(%v) = false, want true", err)
	}
}

// TestIsBudgetTypedNotMessage is the classification regression test: the
// budget verdict must come from the typed flag, so renaming the fault
// message cannot reclassify a budget overrun, and a fault that merely
// mentions "budget" in its message is not one.
func TestIsBudgetTypedNotMessage(t *testing.T) {
	renamed := &sim.ErrFault{PC: 7, Msg: "instruction limit reached", Budget: true}
	if !sim.IsBudget(renamed) {
		t.Error("renamed budget fault not recognized: classification must not depend on the message text")
	}
	lookalike := &sim.ErrFault{PC: 7, Msg: "load from budget table at 0x0"}
	if sim.IsBudget(lookalike) {
		t.Error("non-budget fault recognized as budget just because the message mentions it")
	}
	if sim.IsBudget(nil) {
		t.Error("IsBudget(nil) = true")
	}
}
