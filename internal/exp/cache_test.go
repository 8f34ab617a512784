package exp

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/farm"
	"repro/internal/workloads"
)

// TestCommittedCacheIsReal holds the committed paper-scale store to the
// simulator: a seeded dozen of (program, point) pairs of the seed-1 test
// design must each be in the store, and simulating them again must give
// the stored cycles and energy to the bit. A change to the compiler, the
// simulator or the key that silently invalidates the cache fails here.
func TestCommittedCacheIsReal(t *testing.T) {
	if testing.Short() {
		t.Skip("re-simulates committed paper-scale points")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", ".empirico-cache", "measurements-paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "measurements-paper.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := farm.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	test := NewHarness(Paper).TestDesign()
	names := workloads.Names()
	exec := farm.Executor(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		w := workloads.MustGet(names[rng.Intn(len(names))], workloads.Train)
		p := test[rng.Intn(len(test))]
		key := farm.Key(w, p)
		cycles, energy, ok := store.Get2(key, farm.EnergyKey(key))
		if !ok {
			t.Errorf("%s at %v: not in the committed store", w.Key(), p)
			continue
		}
		res, err := exec(context.Background(), farm.Job{Workload: w, Point: p})
		if err != nil {
			t.Fatalf("%s at %v: %v", w.Key(), p, err)
		}
		if math.Float64bits(res.Cycles) != math.Float64bits(cycles) || math.Float64bits(res.Energy) != math.Float64bits(energy) {
			t.Errorf("%s at %v: simulated %v cycles and %v energy, the store holds %v and %v",
				w.Key(), p, res.Cycles, res.Energy, cycles, energy)
		}
	}
}
