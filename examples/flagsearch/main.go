// Flagsearch demonstrates the paper's headline use case (Section 6.3): an
// empirical model shipped with an application is parameterized with the
// machine it is being installed on, and a genetic algorithm searches the
// model for the best compiler flags and heuristics for that machine — no
// simulation or recompilation in the loop. The chosen settings are then
// validated against the simulator and compared with -O2 and -O3.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/workloads"
)

func main() {
	benchName := "255.vortex"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}

	// Small-but-useful scale so the example runs in a couple of minutes;
	// use exp.Default or exp.Paper for tighter models.
	scale := exp.Scale{
		Name: "example", TrainPoints: 60, // no test set: the search needs none
		GAPopulation: 40, GAGenerations: 25,
	}
	h := exp.NewHarness(scale)
	h.Log = os.Stderr

	fmt.Printf("building empirical model for %s (%d training simulations)...\n",
		benchName, scale.TrainPoints)
	study, err := h.RunStudy([]string{benchName}, workloads.Train)
	if err != nil {
		log.Fatal(err)
	}

	// "Install" on each reference machine: freeze its parameters in the
	// model and let the GA explore the compiler subspace.
	results, err := study.SearchSettings(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(exp.Table6(results, h.Space()))

	// Validate: measure the prescribed settings against -O2 and -O3.
	txt, rows, err := study.Fig7(results, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(txt)
	for _, r := range rows {
		verdict := "matches -O3"
		switch {
		case r.ActualGA > r.ActualO3*1.01:
			verdict = "beats -O3"
		case r.ActualGA < r.ActualO3*0.99:
			verdict = "behind -O3"
		}
		fmt.Printf("%s on %s: %.1f%% over -O2 (%s)\n",
			r.Program, r.Config, 100*(r.ActualGA-1), verdict)
	}

	// Show what the search actually chose for the typical machine.
	for _, r := range results {
		if r.Config != "typical" {
			continue
		}
		opts := doe.ToOptions(r.Point, int(r.Point[doe.NumCompilerVars]))
		fmt.Printf("\nprescribed settings (typical): %s\n", opts)
	}
}
