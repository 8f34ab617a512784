// empirico drives the paper's experiments: it builds empirical models over
// the joint compiler/microarchitecture space and regenerates the tables and
// figures of the evaluation section.
//
// Usage:
//
//	empirico -exp space                  # Tables 1, 2 and 5 (the spaces)
//	empirico -exp fig3                   # unrolling × icache sweep on art
//	empirico -exp table3 -scale quick    # model accuracy comparison
//	empirico -exp all -programs 179.art,181.mcf
//	empirico -exp table7 -cache .empirico-cache
//
// Experiments sharing measurements reuse them within a run, and across runs
// when -cache is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/dist"
	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/workloads"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: space|fig3|table3|table4|fig5|fig6|table6|fig7|table7|all")
		scale    = flag.String("scale", "default", "scale: quick|default|paper")
		programs = flag.String("programs", "", "comma-separated benchmark subset (default: all seven)")
		seed     = flag.Int64("seed", 1, "random seed for designs and search")
		cacheDir = flag.String("cache", "", "directory for the measurement cache")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		workers  = flag.Int("workers", 0, "simulations run at once + analytics workers (0 = GOMAXPROCS, 1 = serial; results identical)")
		waddrs   = flag.String("workers-addrs", "", "comma-separated empirico-worker addresses; measurements shard across them instead of running in-process (results identical)")
		ctrlAddr = flag.String("control-addr", "", "serve the coordinator control API (worker register/deregister) on this address; implies an elastic fleet, usable with an empty -workers-addrs")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	h := exp.NewHarness(sc)
	h.Seed = *seed
	h.CacheDir = *cacheDir
	h.Workers = *workers
	if !*quiet {
		h.Log = os.Stderr
	}
	h.MakeBackend = dist.BackendFactory("empirico", *waddrs, *ctrlAddr, fatal)
	defer func() {
		if st := h.FarmStats(); st.Workers > 0 && !*quiet {
			fmt.Fprintln(os.Stderr, st)
		}
		if err := h.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var names []string
	if *programs != "" {
		names = strings.Split(*programs, ",")
	}

	switch *expName {
	case "space":
		printSpaces()
		return
	case "fig3":
		txt, _, err := h.Fig3()
		if err != nil {
			fatal(err)
		}
		fmt.Println(txt)
		return
	case "table3", "table4", "fig5", "fig6", "table6", "fig7", "table7", "all":
	default:
		fatal(fmt.Errorf("empirico: unknown experiment %q", *expName))
	}

	study, err := h.RunStudy(names, workloads.Train)
	if err != nil {
		fatal(err)
	}
	report := exp.NewReport(study)

	show := func(name string) bool { return *expName == "all" || *expName == name }
	// One GA search serves Table 6, Figure 7 and Table 7. Ctrl-C cancels it
	// between generations instead of hanging until every remaining
	// generation finishes; a second signal kills outright.
	var searchResults []exp.SearchResult
	if show("table6") || show("fig7") || show("table7") {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if searchResults, err = study.SearchSettingsCtx(ctx, nil); err != nil {
			fatal(err)
		}
	}

	if show("table3") {
		txt, rows := study.Table3()
		report.Table3 = rows
		fmt.Println(txt)
	}
	if show("fig5") {
		txt, series := study.Fig5()
		report.Fig5 = series
		fmt.Println(txt)
	}
	if show("fig6") {
		txt, pairs := study.Fig6(nil)
		report.Fig6 = pairs
		fmt.Println(txt)
	}
	if show("table4") {
		txt, cells := study.Table4(0)
		report.Table4 = cells
		fmt.Println(txt)
	}
	if show("table6") {
		report.AddSearch(searchResults)
		fmt.Println(exp.Table6(searchResults, h.Space()))
	}
	if show("fig7") {
		txt, rows, err := study.Fig7(searchResults, nil)
		if err != nil {
			fatal(err)
		}
		report.Fig7 = rows
		fmt.Println(txt)
	}
	if show("table7") {
		txt, rows, err := study.Table7(searchResults, nil)
		if err != nil {
			fatal(err)
		}
		report.Table7 = rows
		fmt.Println(txt)
	}
	if *expName == "all" {
		txt, res, err := h.Fig3()
		if err != nil {
			fatal(err)
		}
		report.Fig3 = res
		fmt.Println(txt)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, study.Stages)
	}
	if *jsonPath != "" {
		if err := report.Write(*jsonPath); err != nil {
			fatal(err)
		}
	}
}

func printSpaces() {
	for _, block := range []struct {
		title string
		vars  []doe.Var
	}{
		{"Table 1: compiler flags and heuristics", doe.CompilerVars()},
		{"Table 2: micro-architectural parameters", doe.MicroarchVars()},
	} {
		fmt.Println(block.title)
		fmt.Printf("  %-26s %-8s %-10s %-10s %s\n", "parameter", "kind", "low", "high", "levels")
		for _, v := range block.vars {
			kind := map[doe.VarKind]string{doe.Flag: "flag", doe.Int: "int", doe.LogInt: "log-int"}[v.Kind]
			fmt.Printf("  %-26s %-8s %-10d %-10d %d\n", v.Name, kind, v.Low, v.High, len(v.LevelValues()))
		}
		fmt.Println()
	}
	fmt.Println(exp.Table5())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
