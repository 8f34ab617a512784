package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one end-to-end metric on one workload, judged.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians of the two sets
	SpreadA, SpreadB float64 // interquartile distance over the median
	Change           float64 // how much worse B is than A, as a share of A
	Bound            float64
	Verdict          string
}

// judge compares two sets of values of one metric. B is worse when its median
// is worse than A's by more than the bound. When the spread inside either set
// exceeds the bound the sets cannot resolve a change of that size, and the
// row is unresolved whichever way the medians fall.
func judge(m metricSpec, a, b []float64) compareRow {
	row := compareRow{Metric: m.Name, Bound: m.Bound,
		A: median(a), B: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	if row.A != 0 {
		row.Change = (row.B - row.A) / row.A
		if m.Better == "higher" {
			row.Change = -row.Change
		}
	}
	switch {
	case row.SpreadA > m.Bound || row.SpreadB > m.Bound:
		row.Verdict = verdictUnresolved
	case row.Change > m.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// loadSet reads results files into values by workload and metric.
func loadSet(paths []string) (map[string]map[string][]float64, error) {
	set := map[string]map[string][]float64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, rep := range f.Workloads {
			if set[w] == nil {
				set[w] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				set[w][name] = append(set[w][name], m.Value)
			}
		}
	}
	return set, nil
}

// compareSets prints one row per (metric, workload) and returns 1 if any row
// is worse.
func compareSets(out io.Writer, spec *benchSpec, aPaths, bPaths []string) int {
	a, errA := loadSet(aPaths)
	b, errB := loadSet(bPaths)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return printComparison(out, spec, a, b)
}

func printComparison(out io.Writer, spec *benchSpec, a, b map[string]map[string][]float64) int {
	status := 0
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(m, va, vb)
			fmt.Fprintf(out, "%-12s %-20s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, row.A, row.B, 100*row.Change, 100*row.SpreadA, 100*row.SpreadB, 100*m.Bound, row.Verdict)
			if row.Verdict == verdictWorse {
				status = 1
			}
		}
	}
	return status
}
