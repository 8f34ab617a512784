// minicc is the MiniC compiler command line: it compiles a source file (or
// one of the built-in benchmark programs) at a chosen optimization level,
// optionally dumping the optimized IR or the generated assembly, and reports
// static statistics.
//
// Usage:
//
//	minicc -src prog.mc -O2 -dump-asm
//	minicc -bench 179.art -O3 -unroll -dump-ir
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/lang"
	"repro/internal/workloads"
)

func main() {
	var (
		srcPath  = flag.String("src", "", "MiniC source file to compile")
		bench    = flag.String("bench", "", "compile a built-in benchmark (e.g. 179.art)")
		input    = flag.String("input", "train", "benchmark input class: train|ref")
		level    = flag.String("O", "2", "optimization level: 0|2|3")
		unroll   = flag.Bool("unroll", false, "additionally enable -funroll-loops")
		dumpIR   = flag.Bool("dump-ir", false, "print the optimized IR")
		dumpAsm  = flag.Bool("dump-asm", false, "print the generated assembly")
		width    = flag.Int("issue-width", 4, "target issue width for the scheduler model")
		flagsStr = flag.String("flags", "", "explicit 14-value comma-separated Table 1 settings (overrides -O)")
		outPath  = flag.String("o", "", "write the compiled binary object to this path")
		fmtSrc   = flag.Bool("fmt", false, "print the program formatted canonically and exit")
	)
	flag.Parse()

	src, name, err := loadSource(*srcPath, *bench, *input)
	if err != nil {
		fatal(err)
	}
	opts, err := buildOptions(*level, *unroll, *width, *flagsStr)
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
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := bin.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
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

func buildOptions(level string, unroll bool, width int, flagsStr string) (compiler.Options, error) {
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
	if flagsStr != "" {
		var vals []int64
		for _, part := range strings.Split(flagsStr, ",") {
			var v int64
			if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
				return opts, fmt.Errorf("minicc: bad -flags entry %q", part)
			}
			vals = append(vals, v)
		}
		if len(vals) != doe.NumCompilerVars {
			return opts, fmt.Errorf("minicc: -flags needs %d values, got %d", doe.NumCompilerVars, len(vals))
		}
		opts = doe.ToOptions(vals, width)
	}
	if unroll {
		opts.UnrollLoops = true
	}
	opts.TargetIssueWidth = width
	return opts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
