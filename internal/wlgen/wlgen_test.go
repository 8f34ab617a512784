package wlgen

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/lang"
	"repro/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("seed %d: program not byte-identical across calls", seed)
		}
		distinct[a.Source] = true
	}
	if len(distinct) < 60 {
		t.Errorf("64 seeds produced only %d distinct programs", len(distinct))
	}
}

func TestGenerateCoversEveryTemplate(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 120; seed++ {
		seen[Generate(seed).Template]++
	}
	for _, tp := range templates {
		if seen[tp.name] == 0 {
			t.Errorf("template %q never drawn across seeds 0-119", tp.name)
		}
	}
}

// conformanceSeeds returns the n seeds the conformance test draws: whitened
// indices, so the programs are spread over every template.
func conformanceSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(splitmix64(20070308 ^ uint64(i)*0x9e3779b97f4a7c15))
	}
	return out
}

// TestGeneratedProgramsValidAndConformant is the wlgen validity property
// test: over 52 seeds, every generated program parses, passes
// semantic checking, compiles cleanly at O0, O3 and a random point of the
// paper's 14-variable compiler space, computes the same result under all
// three configurations, stays inside the intended dynamic-size band, and
// (sampled) the detailed timing simulator agrees with the functional
// executor on the exit value.
func TestGeneratedProgramsValidAndConformant(t *testing.T) {
	space := &doe.Space{Vars: doe.CompilerVars()}
	rng := rand.New(rand.NewSource(1))
	for i, seed := range conformanceSeeds(52) {
		p := Generate(seed)
		// Draw randomness outside the parallel subtest: rng is not
		// goroutine-safe.
		opts := doe.ToOptions(space.RandomPoint(rng), 4)
		runTiming := i%8 == 0
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			ast, err := lang.Parse(p.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := lang.Check(ast); err != nil {
				t.Fatalf("check: %v", err)
			}
			var ref int64
			for ci, o := range []compiler.Options{compiler.O0(), compiler.O3(), opts} {
				prog, _, err := compiler.Compile(ast, o)
				if err != nil {
					t.Fatalf("compile config %d (%v): %v", ci, o, err)
				}
				exe := sim.NewExecutor(prog)
				n, rv, err := exe.Run(20_000_000)
				if err != nil {
					t.Fatalf("run config %d: %v", ci, err)
				}
				switch {
				case ci == 0:
					ref = rv
					if n < 5_000 {
						t.Errorf("trivial program: only %d dynamic instructions at O0", n)
					}
					if n > 5_000_000 {
						t.Errorf("oversized program: %d dynamic instructions at O0", n)
					}
				case rv != ref:
					t.Errorf("config %d result %d != O0 result %d", ci, rv, ref)
				}
				if runTiming && ci == 2 {
					st, err := sim.Simulate(prog, sim.DefaultConfig(), 20_000_000)
					if err != nil {
						t.Fatalf("timing sim: %v", err)
					}
					if st.ExitValue != ref {
						t.Errorf("timing sim exit value %d != executor result %d", st.ExitValue, ref)
					}
				}
			}
		})
	}
}
