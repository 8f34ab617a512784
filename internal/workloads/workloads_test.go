package workloads

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/sim"
)

func TestAllWorkloadsParse(t *testing.T) {
	for _, class := range []InputClass{Train, Ref} {
		for _, name := range Names() {
			if w := MustGet(name, class); w.Parse() == nil {
				t.Errorf("%s: nil AST", w.Key())
			}
		}
	}
}

func TestNamesAndGet(t *testing.T) {
	if len(Names()) != 7 {
		t.Fatal("the suite has seven benchmarks")
	}
	// Clients and scripts match on the exact error text.
	if _, err := Get("999.bogus", Train); err == nil {
		t.Fatal("unknown benchmark should error")
	} else if got, want := err.Error(), `workloads: unknown benchmark "999.bogus"`; got != want {
		t.Errorf("unknown-benchmark error = %q, want %q", got, want)
	}
	w := MustGet("164.gzip", Train)
	if w.Key() != "164.gzip-graphic" {
		t.Errorf("key = %q", w.Key())
	}
	r := MustGet("179.art", Ref)
	if r.Input != "ref" || r.Class != Ref {
		t.Errorf("ref labeling wrong: %+v", r)
	}
}

// run compiles and executes a workload, returning (result, instructions).
func run(t *testing.T, w Workload, opts compiler.Options) (int64, int64) {
	t.Helper()
	prog, _, err := compiler.Compile(w.Parse(), opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Key(), err)
	}
	exe := sim.NewExecutor(prog)
	n, rv, err := exe.Run(200_000_000)
	if err != nil {
		t.Fatalf("%s: run: %v", w.Key(), err)
	}
	return rv, n
}

// TestWorkloadsSemanticsAcrossOptLevels holds every workload's exit value to
// its O0 value under the presets and under settings that only the GA and
// /v1/measure build: seeded joint-space draws at issue widths 2 and 4, and
// every flag on with every Table 1 heuristic at its box minimum, then at its
// maximum.
func TestWorkloadsSemanticsAcrossOptLevels(t *testing.T) {
	everything := compiler.O3()
	everything.UnrollLoops = true
	presets := []compiler.Options{compiler.O0(), compiler.O2(), compiler.O3(), everything}
	lo, hi := make(doe.Point, doe.NumCompilerVars), make(doe.Point, doe.NumCompilerVars)
	for i, v := range doe.CompilerVars() {
		lo[i], hi[i] = v.Low, v.High
		if v.Kind == doe.Flag {
			lo[i] = 1
		}
	}
	for _, p := range []doe.Point{lo, hi} {
		presets = append(presets, doe.ToOptions(p, 2), doe.ToOptions(p, 4))
	}
	space, rng := doe.JointSpace(), rand.New(rand.NewSource(1))
	for _, name := range Names() {
		w := MustGet(name, Train)
		configs := presets
		for i := range 8 {
			configs = append(configs[:len(configs):len(configs)], doe.ToOptions(space.RandomPoint(rng), 2+2*(i%2)))
		}
		var ref int64
		for ci, opts := range configs {
			got, n := run(t, w, opts)
			if ci == 0 {
				ref = got
				t.Logf("%-22s result=%-12d dynInstrs(O0)=%d", w.Key(), got, n)
				continue
			}
			if got != ref {
				t.Errorf("%s: config %d %+v: result %d != O0 result %d", w.Key(), ci, opts, got, ref)
			}
		}
	}
}

func TestWorkloadScaleBudget(t *testing.T) {
	// Keep the suite simulator-friendly: every train workload should run
	// in under ~5M dynamic instructions at O2, and every ref workload
	// should be larger than its train counterpart.
	for _, name := range Names() {
		wt := MustGet(name, Train)
		wr := MustGet(name, Ref)
		_, nt := run(t, wt, compiler.O2())
		_, nr := run(t, wr, compiler.O2())
		if nt > 5_000_000 {
			t.Errorf("%s train too large: %d dynamic instructions", name, nt)
		}
		if nt < 50_000 {
			t.Errorf("%s train too small: %d dynamic instructions", name, nt)
		}
		if nr <= nt {
			t.Errorf("%s: ref (%d) should exceed train (%d)", name, nr, nt)
		}
		t.Logf("%-12s train=%-10d ref=%d", name, nt, nr)
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	w := MustGet("181.mcf", Train)
	a, _ := run(t, w, compiler.O2())
	b, _ := run(t, w, compiler.O2())
	if a != b {
		t.Fatal("workload must be deterministic")
	}
}
