// minicc is the MiniC compiler command line: it compiles a source file (or
// one of the built-in benchmark programs) at an optimization level or at the
// compiler half of a joint design point, optionally dumping the optimized IR
// or the generated assembly, and reports static statistics.
//
// Usage:
//
//	minicc -src prog.mc -O 2 -dump-asm
//	minicc -bench 179.art -O 3 -dump-ir
//	minicc -bench 179.art -point '[0,0,1,1,1,1,1,1,0,100,50,16,8,200,4,2048,64,32,32,1,2,1024,4,10,100]'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		srcPath = flag.String("src", "", "MiniC source file to compile")
		bench   = flag.String("bench", "", "compile a built-in benchmark (e.g. 179.art)")
		input   = flag.String("input", "train", "benchmark input class: train|ref")
		level   = flag.String("O", "2", "optimization level: 0|2|3, scheduled for the typical configuration's issue width")
		point   = flag.String("point", "", "joint design point as the JSON array /v1/measure takes; builds as the farm does (replaces -O)")
		dumpIR  = flag.Bool("dump-ir", false, "print the optimized IR")
		dumpAsm = flag.Bool("dump-asm", false, "print the generated assembly")
		fmtSrc  = flag.Bool("fmt", false, "print the program formatted canonically and exit")
	)
	flag.Parse()

	src, name, err := loadSource(*srcPath, *bench, *input)
	if err != nil {
		fatal(err)
	}
	opts, err := buildOptions(*level, *point)
	if err == nil {
		err = opts.Validate() // before -dump-ir's OptimizeIR, as Compile does
	}
	if err != nil {
		fatal(err)
	}

	prog, err := lang.Parse(src)
	if err != nil {
		fatal(err)
	}
	if err := lang.Check(prog); err != nil {
		fatal(err)
	}
	if *fmtSrc {
		fmt.Print(lang.Format(prog))
		return
	}

	if *dumpIR {
		irProg, err := compiler.Lower(prog)
		if err != nil {
			fatal(err)
		}
		compiler.OptimizeIR(irProg, opts)
		for _, f := range irProg.Funcs {
			fmt.Println(f.String())
		}
	}

	bin, stats, err := compiler.Compile(prog, opts)
	if err != nil {
		fatal(err)
	}
	if *dumpAsm {
		for i, in := range bin.Instrs {
			for name, entry := range bin.Symbols {
				if int32(i) == entry {
					fmt.Printf("%s:\n", name)
				}
			}
			fmt.Printf("%6d\t%s\n", i, in.String())
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d IR instrs, %d machine instrs, %d spill slots\n",
		name, stats.IRInstrs, stats.MachineInstrs, stats.SpillSlots)
	fmt.Fprintf(os.Stderr, "options: %s\n", opts)
}

func loadSource(srcPath, bench, input string) (string, string, error) {
	switch {
	case srcPath != "" && bench != "":
		return "", "", fmt.Errorf("minicc: -src and -bench are mutually exclusive")
	case srcPath != "":
		data, err := os.ReadFile(srcPath)
		if err != nil {
			return "", "", err
		}
		return string(data), srcPath, nil
	case bench != "":
		w, err := workloads.Get(bench, workloads.InputClass(input))
		if err != nil {
			return "", "", err
		}
		return w.Source, w.Key(), nil
	default:
		return "", "", fmt.Errorf("minicc: need -src or -bench (try -bench 179.art)")
	}
}

// buildOptions names the build: a joint point's compiler half scheduled for
// its own issue width, as farm.Executor builds it, or a preset scheduled for
// the typical configuration's.
func buildOptions(level, point string) (compiler.Options, error) {
	if point != "" {
		p, err := doe.ParsePoint(point)
		if err != nil {
			return compiler.Options{}, err
		}
		return doe.ToOptions(p, doe.ToConfig(p).IssueWidth), nil
	}
	var opts compiler.Options
	switch level {
	case "0":
		opts = compiler.O0()
	case "2":
		opts = compiler.O2()
	case "3":
		opts = compiler.O3()
	default:
		return opts, fmt.Errorf("minicc: unknown level -O%s", level)
	}
	opts.TargetIssueWidth = sim.DefaultConfig().IssueWidth
	return opts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
