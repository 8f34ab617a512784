// Command benchmark measures the whole pipeline of this repository, source to
// model to setting, on five named workloads, and under each the layers that
// do the work. BENCHMARK.json at the repository root names the workloads and
// every metric; README.md in this directory explains them.
//
//	go -C benchmark run . -seed 1                      all workloads, end-to-end metrics
//	go -C benchmark run . -seed 1 -trace 1             the same with the per-layer metrics
//	go -C benchmark run . -workload sweep-cold         one workload; the last line is its JSON result
//	go -C benchmark run . -compare a.json b.json       judge two sets of results by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is results.json: one invocation's reports by workload.
type resultsFile struct {
	Seed      int64                 `json:"seed"`
	Size      string                `json:"size"`
	Trace     int                   `json:"trace"`
	Seconds   float64               `json:"seconds"`
	Workers   int                   `json:"workers"`
	NumCPU    int                   `json:"nproc"`
	GoVersion string                `json:"go_version"`
	Workloads map[string]*runReport `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line (default: all)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 0, "time budget of a workload's timed passes (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		sizeName     = flag.String("size", "full", "load size: full, or smoke for one small pass of everything")
		outDir       = flag.String("out", ".bench_build", "directory for results.json, traces and scratch files")
		update       = flag.Bool("update-expected", false, "rewrite the digests of expected.json from this run (seed 1 only)")
		compare      = flag.Bool("compare", false, "compare two sets of results: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()

	spec, specDir, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two arguments, each a comma-separated list of results files")
			return 2
		}
		return compareSets(os.Stdout, spec, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments:", flag.Args())
		return 2
	}
	size, err := sizeByName(*sizeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	expected, err := loadExpected(specDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workloadName == "" || *workloadName == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}

	scratch, err := newScratch(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: *seed, size: size, workers: workerCount(), scratch: scratch, expected: expected, updating: *update}

	file := &resultsFile{Seed: *seed, Size: size.name, Trace: *trace, Seconds: *seconds, Workers: e.workers,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Workloads: map[string]*runReport{}}
	status := 0
	for _, name := range names {
		rep, spans, err := runWorkload(name, e, spec, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		file.Workloads[name] = rep
		if *trace == 1 {
			if err := writeTrace(filepath.Join(*outDir, "trace-"+name+".json"), spans); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printReport(name, rep)
		if !rep.Correct {
			status = 1
		}
	}
	if len(names) > 1 {
		// The same jobs went through the in-process farm and the
		// distributed plane; their first passes must agree.
		if a, b := file.Workloads["march-sweep"], file.Workloads["dist-sweep"]; a != nil && b != nil && a.Digest != b.Digest {
			fmt.Fprintf(os.Stderr, "benchmark: dist-sweep digest %s differs from march-sweep's %s\n", b.Digest, a.Digest)
			status = 1
		}
	}
	if *update {
		if *seed != expected.Seed {
			fmt.Fprintf(os.Stderr, "benchmark: -update-expected needs -seed %d\n", expected.Seed)
			return 2
		}
		if expected.Digests[size.name] == nil {
			expected.Digests[size.name] = map[string]string{}
		}
		for name, rep := range file.Workloads {
			expected.Digests[size.name][name] = rep.Digest
		}
		if err := expected.save(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *workloadName != "" {
		// The contract's last line: exactly correct, attempted, failed and
		// the metrics of the mode.
		line, _ := json.Marshal(file.Workloads[*workloadName].result)
		fmt.Println(string(line))
	}
	return status
}

// workerCount sizes the farm and the analytics: every core up to four. No
// workload runs more simulating threads plus client connections than this.
func workerCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "sweep-cold":
		return newSweep(e, false)
	case "sweep-warm":
		return newSweep(e, true)
	case "march-sweep":
		return newMarch(e, false)
	case "dist-sweep":
		return newMarch(e, true)
	case "serve-mix":
		return newServeMix(e)
	}
	return nil, fmt.Errorf("workload %q is declared in BENCHMARK.json but not implemented", name)
}

// printReport prints every metric of one workload by name with its unit, and
// for a timing the tail percentile that has ten samples beyond it, which is
// as measured: the metric is the median times the host factor.
func printReport(name string, rep *runReport) {
	verdict := "ok"
	if !rep.Correct {
		verdict = "FAILED"
	}
	fmt.Printf("%s: %s, %d passes, %d operations attempted, %d failed, digest %s, host factor %.3f\n",
		name, verdict, rep.Passes, rep.Attempted, rep.Failed, rep.Digest, rep.HostFactor)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Metrics[k]
		line := fmt.Sprintf("  %-32s %14.6g %-8s", k, m.Value, m.Unit)
		if d, ok := rep.Details[k]; ok && d.Samples > 1 {
			line += fmt.Sprintf(" p%g %.6g, n=%d", d.TailP, d.Tail, d.Samples)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, f := range rep.Failures {
		fmt.Printf("  check failed: %s\n", f)
	}
}
