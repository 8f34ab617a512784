// simrun compiles a program and runs it on the cycle-level simulator at a
// chosen microarchitectural configuration, reporting cycles, IPC, cache miss
// rates and branch prediction accuracy. With -smarts it uses sampled
// simulation and reports the estimate with its confidence interval. -engine
// selects the simulation engine (feed, fused or the basic-block translated
// bb tier); all engines produce bit-identical results.
//
// A build is named by presets (-O and -config) or by a joint design point
// (-point), which is compiled and configured exactly as farm.Executor does.
//
// Usage:
//
//	simrun -bench 181.mcf -config typical
//	simrun -bench 179.art -O 3 -config aggressive -smarts
//	simrun -bench 179.art -engine fused
//	simrun -bench 179.art -point '[0,0,1,1,1,1,1,1,0,100,50,16,8,200,4,2048,64,32,32,1,2,1024,4,10,100]'
//	simrun -bench 179.art -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/smarts"
	"repro/internal/workloads"
)

func main() {
	var (
		srcPath = flag.String("src", "", "MiniC source file")
		bench   = flag.String("bench", "", "built-in benchmark (e.g. 181.mcf)")
		input   = flag.String("input", "train", "benchmark input: train|ref")
		level   = flag.String("O", "2", "optimization level: 0|2|3")
		cfgName = flag.String("config", "typical", "configuration: constrained|typical|aggressive")
		point   = flag.String("point", "", "joint design point as the JSON array /v1/measure takes; builds and configures as the farm does (replaces -O and -config)")
		useSam  = flag.Bool("smarts", false, "use SMARTS sampled simulation")
		engine  = flag.String("engine", sim.EngineBB, "simulation engine, all bit-identical: feed (reference), fused (chunk producer feeding the reference timing model in one goroutine), bb (translated blocks; sim.Simulate's tier)")
		trace   = flag.Int64("trace", 0, "print pipeline timing for the first N instructions")
		budget  = flag.Int64("max-instrs", 2_000_000_000, "instruction budget")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	opts, cfg, label, err := build(*level, *cfgName, *point)
	if err != nil {
		fatal(err)
	}
	if err := cfg.Validate(); err != nil { // -trace builds its CPU directly
		fatal(err)
	}

	var src, name string
	switch {
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		src, name = string(data), *srcPath
	case *bench != "":
		w, err := workloads.Get(*bench, workloads.InputClass(*input))
		if err != nil {
			fatal(err)
		}
		src, name = w.Source, w.Key()
	default:
		fatal(fmt.Errorf("simrun: need -src or -bench"))
	}
	prog, err := lang.Parse(src)
	if err != nil {
		fatal(err)
	}
	if err := lang.Check(prog); err != nil {
		fatal(err)
	}
	bin, _, err := compiler.Compile(prog, opts)
	if err != nil {
		fatal(err)
	}

	// Profile only the simulation itself, not parsing or compilation.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *useSam {
		res, err := smarts.Run(bin, cfg, smarts.DefaultSampler(), *budget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s (SMARTS)\n", name, label)
		fmt.Printf("  estimated cycles: %.0f\n", res.EstimatedCycles)
		fmt.Printf("  instructions:     %d\n", res.Instructions)
		fmt.Printf("  mean CPI:         %.3f (99.7%% CI ±%.2f%%)\n", res.MeanCPI, 100*res.RelCI997)
		fmt.Printf("  detailed windows: %d\n", res.Windows)
		fmt.Printf("  exit value:       %d\n", res.ExitValue)
		return
	}

	var st sim.Stats
	var es sim.EngineStats
	if *trace > 0 {
		exe := sim.NewExecutor(bin)
		cpu := sim.NewCPU(cfg)
		fmt.Printf("%6s %6s %-24s %9s %9s %9s %9s\n",
			"seq", "pc", "instr", "dispatch", "issue", "done", "commit")
		cpu.Trace = func(ev sim.TraceEvent) {
			if ev.Seq < *trace {
				fmt.Printf("%6d %6d %-24s %9d %9d %9d %9d\n",
					ev.Seq, ev.PC, ev.Instr.String(), ev.Dispatch, ev.Issue, ev.Done, ev.Commit)
			}
		}
		for !exe.Halted {
			if exe.Count >= *budget {
				fatal(fmt.Errorf("simrun: instruction budget exceeded"))
			}
			entry, ok, err := exe.Step()
			if err != nil {
				fatal(err)
			}
			if !ok {
				break
			}
			cpu.Feed(&bin.Instrs[entry.PC], entry)
		}
		st = cpu.Stats()
		st.ExitValue = exe.Regs[isa.RegRV]
	} else {
		var err error
		st, es, err = sim.SimulateEngine(bin, cfg, *budget, *engine)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s on %s\n", name, label)
	fmt.Printf("  cycles:        %d\n", st.Cycles)
	fmt.Printf("  instructions:  %d\n", st.Instructions)
	fmt.Printf("  IPC:           %.3f\n", st.IPC())
	fmt.Printf("  branches:      %d (%.2f%% mispredicted)\n", st.Branches, pct(st.Mispredicts, st.Branches))
	fmt.Printf("  IL1 misses:    %d / %d (%.2f%%)\n", st.IL1Misses, st.IL1Accesses, pct(st.IL1Misses, st.IL1Accesses))
	fmt.Printf("  DL1 misses:    %d / %d (%.2f%%)\n", st.DL1Misses, st.DL1Accesses, pct(st.DL1Misses, st.DL1Accesses))
	fmt.Printf("  L2 misses:     %d / %d (%.2f%%)\n", st.L2Misses, st.L2Accesses, pct(st.L2Misses, st.L2Accesses))
	fmt.Printf("  energy (a.u.): %.0f\n", st.Energy)
	fmt.Printf("  exit value:    %d\n", st.ExitValue)
	if *engine == sim.EngineBB && *trace == 0 {
		fmt.Printf("  engine:        bb (%d blocks, %d translated instrs, %d slow-path entries)\n",
			es.BlocksTranslated, es.TranslatedInstrs, es.SlowPathEntries)
	}
}

// build names the build: a joint point, compiled and configured as
// farm.Executor does, or the presets, scheduled for the configuration's issue
// width. label names it in the report's header.
func build(level, cfgName, point string) (opts compiler.Options, cfg sim.Config, label string, err error) {
	if point != "" {
		p, err := doe.ParsePoint(point)
		if err != nil {
			return opts, cfg, "", err
		}
		cfg = doe.ToConfig(p)
		return doe.ToOptions(p, cfg.IssueWidth), cfg, "point " + point, nil
	}
	configs := exp.NamedConfigs()
	i := slices.IndexFunc(configs, func(nc exp.NamedConfig) bool { return nc.Name == cfgName })
	if i < 0 {
		return opts, cfg, "", fmt.Errorf("simrun: unknown config %q", cfgName)
	}
	cfg = configs[i].Config
	switch level {
	case "0":
		opts = compiler.O0()
	case "2":
		opts = compiler.O2()
	case "3":
		opts = compiler.O3()
	default:
		return opts, cfg, "", fmt.Errorf("simrun: unknown level -O%s", level)
	}
	opts.TargetIssueWidth = cfg.IssueWidth
	return opts, cfg, cfgName, nil
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
