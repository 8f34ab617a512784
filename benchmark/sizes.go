package main

import "fmt"

// sizes fixes how much work one pass of each workload does. The full size is
// what BENCHMARK.json's numbers are measured at: a pass takes 0.3 to 2.5 s on
// two cores, so that a run of run_seconds holds at least seven and a pass
// holds enough points to average over the seeded draw. The smoke size
// runs every code path once, for the tests.
type sizes struct {
	name string
	// onePass runs set-up once and one pass (two when traced), ignoring the
	// time budget.
	onePass bool

	// Sweeps: the paper's pipeline per program.
	sweepPrograms []string
	train, test   int // D-optimal training design, Latin-hypercube test set
	gaPop, gaGen  int
	cvFolds       int

	// march-sweep and dist-sweep: programs x {O2, O3} x marchPoints
	// Latin-hypercube points of the microarchitecture space.
	marchPrograms []string
	marchPoints   int

	// serve-mix.
	servePrograms []string
	serveTrain    int // TrainPoints of the artifacts set-up trains
	serveMeasures int // writer requests per pass, one fresh point each
	predictPoints int // points per predict request
	predictBodies int // distinct predict requests the reader cycles through
	serveWarmup   float64

	// Checks and layer replays.
	referencePoints int // points re-simulated by the feed engine
	manyGroups      int // groups replayed through sim.SimulateMany
	smartsPrograms  []string
	smartsConfigs   int
	bulkPredict     int // points of the PredictAll timing
	storeOps        int // Put and Get2 calls of the store timing
}

// The two sweep programs are the contrast ROADMAP item 1 names: 179.art is
// memory-bound array code, 181.mcf chases pointers. Two programs keep a cold
// pass near two seconds, so that a run holds seven or eight and their median
// is worth having. The march sweeps add 164.gzip (compute-bound, short loops)
// and 255.vortex (call-heavy), because there the simulator's cost per
// instruction by program is the point.
var marchPrograms = []string{"179.art", "181.mcf", "164.gzip", "255.vortex"}

func sizeByName(name string) (sizes, error) {
	switch name {
	case "full", "":
		return sizes{
			name:          "full",
			sweepPrograms: []string{"179.art", "181.mcf"},
			train:         28, test: 6, gaPop: 24, gaGen: 12, cvFolds: 5,
			marchPrograms: marchPrograms, marchPoints: 6,
			servePrograms: []string{"179.art", "181.mcf"},
			serveTrain:    40, serveMeasures: 16, predictPoints: 32, predictBodies: 512, serveWarmup: 1,
			referencePoints: 8, manyGroups: 8,
			smartsPrograms: marchPrograms, smartsConfigs: 8,
			bulkPredict: 10000, storeOps: 2000,
		}, nil
	case "smoke":
		return sizes{
			name: "smoke", onePass: true,
			sweepPrograms: []string{"179.art"},
			train:         12, test: 4, gaPop: 8, gaGen: 3, cvFolds: 2,
			marchPrograms: []string{"179.art"}, marchPoints: 4,
			servePrograms: []string{"179.art"},
			serveTrain:    12, serveMeasures: 3, predictPoints: 8, predictBodies: 16, serveWarmup: 0.1,
			referencePoints: 2, manyGroups: 2,
			smartsPrograms: []string{"179.art"}, smartsConfigs: 3,
			bulkPredict: 500, storeOps: 100,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown size %q (full|smoke)", name)
}
