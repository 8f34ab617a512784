package lang

import (
	"math/rand"
	"testing"
)

// TestGenProgramDeterministic holds GenProgram to a pure function of its
// rng: a seed drawn twice gives the same text, so a failing fuzz input
// replays, and different seeds give different programs.
func TestGenProgramDeterministic(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		a := GenProgram(rand.New(rand.NewSource(seed)))
		b := GenProgram(rand.New(rand.NewSource(seed)))
		if a != b {
			t.Fatalf("seed %d: two draws differ (%d and %d bytes)", seed, len(a), len(b))
		}
		distinct[a] = true
	}
	if len(distinct) < 60 {
		t.Errorf("64 seeds produced only %d distinct programs", len(distinct))
	}
}

// TestGenProgramSpillsSmallDCache requires that seeds 0-19 declare at least
// one array larger than 8 KB, the data cache of FuzzEnginesAgree's smallest
// configuration, so the fuzz target's programs reach its miss path.
func TestGenProgramSpillsSmallDCache(t *testing.T) {
	const dcacheBytes = 8 << 10
	for seed := int64(0); seed < 20; seed++ {
		prog, err := Parse(GenProgram(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, g := range prog.Globals {
			if g.Size*8 > dcacheBytes {
				return
			}
		}
	}
	t.Errorf("no program of seeds 0-19 declares an array larger than %d bytes", dcacheBytes)
}
