// Energymodel demonstrates the paper's "other responses" extension
// (Section 2.2: "models can also be built for other metrics such as power
// consumption or code size"): the identical design-measure-fit pipeline
// models the simulator's activity-based energy estimate instead of cycles,
// and the fitted model reveals which parameters drive energy rather than
// time — they are not the same set.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/workloads"
)

func main() {
	benchName := "181.mcf"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}
	scale := exp.Scale{Name: "example", TrainPoints: 70, TestPoints: 15}
	h := exp.NewHarness(scale)
	h.Log = os.Stderr
	w, err := workloads.Get(benchName, workloads.Train)
	if err != nil {
		log.Fatal(err)
	}

	space := h.Space()
	train := h.TrainDesign()
	test := h.TestDesign()
	pts := append(train[:len(train):len(train)], test...)
	xs := make([][]float64, len(pts))
	for i, p := range pts {
		xs[i] = space.Code(p)
	}

	fmt.Printf("measuring %d+%d points of %s for cycles and energy...\n",
		len(train), len(test), w.Key())

	for _, resp := range []struct {
		name string
		resp farm.Response
	}{
		{"cycles", farm.Cycles},
		{"energy", farm.Energy},
	} {
		// One batch per response: the farm plans the points that share a
		// binary together, and the energy batch is answered from the
		// results the cycles batch stored.
		ys, err := h.Farm().MeasureBatch(context.Background(), w, pts, resp.resp)
		if err != nil {
			log.Fatal(err)
		}
		trainDS := &model.Dataset{X: xs[:len(train)], Y: ys[:len(train)]}
		testDS := &model.Dataset{X: xs[len(train):], Y: ys[len(train):]}
		m, err := exp.FitRBF(trainDS)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== response: %s ===\n", resp.name)
		fmt.Printf("RBF-RT test error: %.2f%%\n", model.TestError(m, testDS))

		mars, err := model.FitMARS(trainDS, model.MARSOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("top 8 effects:")
		for _, e := range model.TopEffects(mars, space, trainDS.X, 8) {
			fmt.Printf("  %-40s %12.3g\n", e.Label(), e.Value)
		}
	}
	fmt.Println("\nNote how memory-system parameters dominate both responses, but the")
	fmt.Println("energy ranking weights DRAM traffic (cache sizes) more heavily, while")
	fmt.Println("cycles also reward issue width and latency parameters.")
}
