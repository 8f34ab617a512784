// Interactions demonstrates the interpretive use of the models (the paper's
// Section 6.2 and Table 4): fit a MARS model to a program and read off which
// parameters and parameter interactions drive its performance — the
// information a compiler writer would use to design better heuristics.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/exp"
	"repro/internal/model"
	"repro/internal/workloads"
)

func main() {
	benchName := "181.mcf"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}

	scale := exp.Scale{Name: "example", TrainPoints: 80} // no test set: the effects need none
	h := exp.NewHarness(scale)
	h.Log = os.Stderr

	study, err := h.RunStudy([]string{benchName}, workloads.Train)
	if err != nil {
		log.Fatal(err)
	}
	pd := study.Programs[0]
	mars := study.Models[pd.Workload.Key()]["mars-raw"]

	fmt.Printf("\nTop effects for %s (coefficients in cycles; the paper's\n", pd.Workload.Key())
	fmt.Println("convention: half the response change from a variable's low to high value)")
	fmt.Printf("%-44s %15s\n", "parameter / interaction", "coefficient")
	for _, e := range model.TopEffects(mars, h.Space(), pd.Train.X, 15) {
		kind := "main"
		if len(e.Vars) == 2 {
			kind = "2-factor"
		}
		fmt.Printf("%-44s %15.0f  (%s)\n", e.Label(), e.Value, kind)
	}

	fmt.Println("\nReading the table: negative coefficients improve performance when the")
	fmt.Println("parameter moves low -> high (e.g. bigger caches); positive ones hurt")
	fmt.Println("(e.g. higher memory latency). Interactions whose sign opposes a main")
	fmt.Println("effect mark the configurations where a flag stops paying off —")
	fmt.Println("exactly what a hand-written heuristic would need to know.")
}
