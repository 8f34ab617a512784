// benchcheck parses `go test -bench` output on stdin, writes the headline
// numbers to a JSON file at the repo root, and fails (exit 1) when a
// committed baseline shows a regression beyond -max-regress. CI runs it
// after the benchmark step so a slowdown fails the build instead of landing
// silently. Two benchmark sets are understood:
//
//	-set sim (default): simulator throughput + SMARTS sampling +
//	    warm-state checkpoints. Gated on detailed-simulation instructions
//	    per second of sim.Simulate (the basic-block translated tier), on
//	    the same-run bb/fused wall-clock ratio (a floor just under parity:
//	    the translated engine must never be slower than the chunk
//	    composition that would replace it, with a small allowance for
//	    host jitter), on a hard 2x floor for the warm-checkpoint hit
//	    speedup and a hard 1x floor for the SMARTS detailed/sampled ratio
//	    (both ratios are same-process and single-threaded, so they hold on
//	    any host), and on the sampled estimate's relative error, which is
//	    deterministic and may not exceed the baseline's.
//
//	go test -run '^$' -bench 'SimulatorThroughput$|TranslatedThroughput$|SMARTSSpeedup$|WarmCheckpointSpeedup$' -benchtime=1x . |
//	    go run ./cmd/benchcheck -baseline BENCH_sim.json -out BENCH_sim.json
//
//	-set model: the analytics layer (MARS fit, D-optimal exchange,
//	    cross-validation, GA search), gated on wall-clock per stage plus a
//	    hard floor on the D-optimal incremental-vs-reference speedup (the
//	    one analytics ratio that is algorithmic rather than core-count
//	    dependent).
//
//	go test -run '^$' -bench 'FitMARS$|DOptimal$|CrossValidate$|GASearch$' -benchtime=1x . |
//	    go run ./cmd/benchcheck -set model -baseline BENCH_model.json -out BENCH_model.json
//
//	-set farm: the measurement farm's batch planner, gated on the
//	    grouped-vs-ungrouped wall-clock ratio of a fixed-flags Table-7
//	    sweep (a hard floor: the shared-trace path eliminates CPU work,
//	    so the ratio holds on any core count) plus the grouped batch's
//	    wall clock.
//
//	go test -run '^$' -bench 'MeasureBatchShared$' -benchtime=1x . |
//	    go run ./cmd/benchcheck -set farm -baseline BENCH_farm.json -out BENCH_farm.json
//
//	-set dist: the distributed measurement plane, gated on the
//	    two-worker-vs-one-worker wall-clock ratio of a grouped sweep
//	    through the coordinator (a hard floor: the workers are
//	    fixed-service-time stubs, so the ratio measures scheduling
//	    overlap and holds on any core count) plus the two-worker wall
//	    clock.
//
//	go test -run '^$' -bench 'DistributedSweep$' -benchtime=1x . |
//	    go run ./cmd/benchcheck -set dist -baseline BENCH_dist.json -out BENCH_dist.json
//
//	-set serve: the prediction plane's serving SLO, fed by cmd/loadgen
//	    instead of `go test -bench`. Gated on hard caps for the p99
//	    latency (-max-p99-ms) and error rate (-max-err-rate) — the SLO —
//	    plus a baseline regression check on p99.
//
//	loadgen -addr http://127.0.0.1:8081 -duration 10s |
//	    go run ./cmd/benchcheck -set serve -baseline BENCH_serve.json -out BENCH_serve.json
//
// Regenerate a baseline by committing the freshly written file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// SimNumbers is the schema of BENCH_sim.json.
type SimNumbers struct {
	// InstrsPerSec is detailed-simulation throughput from
	// BenchmarkSimulatorThroughput (committed instructions per second of
	// sim.Simulate, which runs the basic-block translated engine).
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// BBVsFusedX is the same-run fused/bb wall-clock ratio from
	// BenchmarkTranslatedThroughput; >1 means the translated engine is
	// faster than the chunk composition it would be replaced by.
	BBVsFusedX float64 `json:"bb_vs_fused_x"`
	// SMARTSSpeedupX is the detailed/sampled wall-clock ratio from
	// BenchmarkSMARTSSpeedup, held above minSMARTSSpeedup.
	SMARTSSpeedupX float64 `json:"smarts_speedup_x"`
	// SMARTSRelErrPct is the sampled estimate's relative error (%) from
	// the same benchmark: a correctness number, deterministic, gated at the
	// baseline's value.
	SMARTSRelErrPct float64 `json:"smarts_est_relerr_pct"`
	// WarmCkptHitSpeedupX is the build/replay wall-clock ratio of a
	// warm-checkpoint hit from BenchmarkWarmCheckpointSpeedup.
	WarmCkptHitSpeedupX float64 `json:"warm_checkpoint_hit_speedup"`
}

// ModelNumbers is the schema of BENCH_model.json. The *Ms fields are
// wall-clock milliseconds of the optimized path; lower is better.
type ModelNumbers struct {
	FitMARSMs        float64 `json:"fit_mars_ms"`
	DOptimalMs       float64 `json:"doptimal_ms"`
	DOptimalSpeedupX float64 `json:"doptimal_speedup_x"`
	CrossValMs       float64 `json:"crossval_ms"`
	GASearchMs       float64 `json:"ga_ms"`
	// FeatureExtractMs is the cold feature-extraction wall clock over the
	// full seed suite from BenchmarkFeatureExtract.
	FeatureExtractMs float64 `json:"feature_extract_ms"`
}

// FarmNumbers is the schema of BENCH_farm.json.
type FarmNumbers struct {
	// GroupedMs is wall-clock milliseconds for the grouped (compile-once /
	// interpret-once) batch from BenchmarkMeasureBatchShared.
	GroupedMs float64 `json:"grouped_ms"`
	// SharedSpeedupX is the ungrouped/grouped wall-clock ratio from the
	// same benchmark.
	SharedSpeedupX float64 `json:"shared_speedup_x"`
	// Points is the batch size the ratio was measured at.
	Points float64 `json:"points"`
}

// ServeNumbers is the schema of BENCH_serve.json, parsed from cmd/loadgen's
// BenchmarkServeLoadgen line.
type ServeNumbers struct {
	// RPS is serving throughput (requests per second), recorded for
	// context but not gated: it is core-count dependent.
	RPS float64 `json:"rps"`
	// P50Ms/P95Ms/P99Ms are latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	// P99Ms carries the SLO: hard-capped by -max-p99-ms and gated against
	// the baseline by -max-regress.
	P99Ms float64 `json:"p99_ms"`
	// ErrRate is the non-200 fraction, hard-capped by -max-err-rate.
	ErrRate float64 `json:"err_rate"`
}

// DistNumbers is the schema of BENCH_dist.json.
type DistNumbers struct {
	// TwoWorkerMs is wall-clock milliseconds for the sweep through a
	// coordinator over two workers, from BenchmarkDistributedSweep.
	TwoWorkerMs float64 `json:"two_worker_ms"`
	// DistSpeedupX is the one-worker/two-worker wall-clock ratio from the
	// same benchmark.
	DistSpeedupX float64 `json:"dist_speedup_x"`
	// Groups is the number of shared-binary groups the sweep planned into.
	Groups float64 `json:"groups"`
	// HeteroMs is wall-clock milliseconds for the capacity-weighted sweep
	// over the lopsided 1-slot/3-slot fleet, from BenchmarkHeterogeneousSweep.
	HeteroMs float64 `json:"hetero_ms"`
	// HeteroSpeedupX is the uniform-cap/capacity-weighted wall-clock ratio
	// from the same benchmark.
	HeteroSpeedupX float64 `json:"hetero_speedup_x"`
}

func main() {
	set := flag.String("set", "sim", "benchmark set to parse and gate: sim|model|farm|dist")
	baselinePath := flag.String("baseline", "", "committed baseline to compare against (default BENCH_<set>.json; missing file skips the check)")
	outPath := flag.String("out", "", "where to write the fresh numbers (default BENCH_<set>.json)")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum tolerated fractional regression")
	minDOptSpeedup := flag.Float64("min-doptimal-speedup", 3, "hard floor on the model set's doptimal_speedup_x")
	minSharedSpeedup := flag.Float64("min-shared-speedup", 2, "hard floor on the farm set's shared_speedup_x")
	minDistSpeedup := flag.Float64("min-dist-speedup", 1.7, "hard floor on the dist set's dist_speedup_x")
	minHeteroSpeedup := flag.Float64("min-hetero-speedup", 1.3, "hard floor on the dist set's hetero_speedup_x")
	minBBSpeedup := flag.Float64("min-bb-speedup", 0.97, "floor on the sim set's bb_vs_fused_x (parity minus host jitter)")
	minCkptSpeedup := flag.Float64("min-ckpt-speedup", 2, "hard floor on the sim set's warm_checkpoint_hit_speedup")
	maxP99 := flag.Float64("max-p99-ms", 250, "hard cap on the serve set's p99_ms (the SLO)")
	maxErrRate := flag.Float64("max-err-rate", 0.01, "hard cap on the serve set's err_rate")
	flag.Parse()

	def := "BENCH_" + *set + ".json"
	if *baselinePath == "" {
		*baselinePath = def
	}
	if *outPath == "" {
		*outPath = def
	}

	lines, err := benchLines(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	switch *set {
	case "sim":
		checkSim(lines, *baselinePath, *outPath, *maxRegress, *minBBSpeedup, *minCkptSpeedup)
	case "model":
		checkModel(lines, *baselinePath, *outPath, *maxRegress, *minDOptSpeedup)
	case "farm":
		checkFarm(lines, *baselinePath, *outPath, *maxRegress, *minSharedSpeedup)
	case "dist":
		checkDist(lines, *baselinePath, *outPath, *maxRegress, *minDistSpeedup, *minHeteroSpeedup)
	case "serve":
		checkServe(lines, *baselinePath, *outPath, *maxRegress, *maxP99, *maxErrRate)
	default:
		fatal(fmt.Errorf("benchcheck: unknown -set %q (sim|model|farm|dist|serve)", *set))
	}
}

// minSMARTSSpeedup is the floor on smarts_speedup_x: a sampled run that
// costs more than the detailed run it replaces has no reason to exist. Both
// sides of the ratio run single-threaded in one process, so the floor does
// not depend on the host's core count and is not a flag.
const minSMARTSSpeedup = 1.0

func checkSim(lines []benchLine, baselinePath, outPath string, maxRegress, minBBSpeedup, minCkptSpeedup float64) {
	cur := &SimNumbers{}
	var haveThroughput, haveBB, haveSMARTS, haveCkpt bool
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l.name, "BenchmarkSimulatorThroughput"):
			if l.metrics["ns/op"] > 0 {
				cur.InstrsPerSec = l.metrics["instrs/op"] / (l.metrics["ns/op"] * 1e-9)
				haveThroughput = true
			}
		case strings.HasPrefix(l.name, "BenchmarkTranslatedThroughput"):
			cur.BBVsFusedX = l.metrics["bb-vs-fused-x"]
			haveBB = true
		case strings.HasPrefix(l.name, "BenchmarkSMARTSSpeedup"):
			cur.SMARTSSpeedupX = l.metrics["speedup-x"]
			cur.SMARTSRelErrPct = l.metrics["est-relerr-%"]
			haveSMARTS = true
		case strings.HasPrefix(l.name, "BenchmarkWarmCheckpointSpeedup"):
			cur.WarmCkptHitSpeedupX = l.metrics["ckpt-hit-speedup-x"]
			haveCkpt = true
		}
	}
	if !haveThroughput || !haveBB || !haveSMARTS || !haveCkpt {
		fatal(fmt.Errorf("benchcheck: missing benchmark output (throughput=%v bb=%v smarts=%v ckpt=%v)",
			haveThroughput, haveBB, haveSMARTS, haveCkpt))
	}

	base := &SimNumbers{}
	writeAndLoadBaseline(cur, base, baselinePath, outPath)
	fmt.Printf("benchcheck: %.3g instrs/sec (bb, %.2fx vs fused), SMARTS %.2fx (%.1f%% err), ckpt hit %.1fx\n",
		cur.InstrsPerSec, cur.BBVsFusedX,
		cur.SMARTSSpeedupX, cur.SMARTSRelErrPct, cur.WarmCkptHitSpeedupX)
	if cur.BBVsFusedX < minBBSpeedup {
		fatal(fmt.Errorf("benchcheck: translated engine %.2fx of fused, below floor %.2fx",
			cur.BBVsFusedX, minBBSpeedup))
	}
	if cur.WarmCkptHitSpeedupX < minCkptSpeedup {
		fatal(fmt.Errorf("benchcheck: warm-checkpoint hit speedup %.2fx below floor %.1fx",
			cur.WarmCkptHitSpeedupX, minCkptSpeedup))
	}
	if cur.SMARTSSpeedupX < minSMARTSSpeedup {
		fatal(fmt.Errorf("benchcheck: SMARTS sampled run %.2fx of the detailed run, below floor %.1fx",
			cur.SMARTSSpeedupX, minSMARTSSpeedup))
	}
	if base.InstrsPerSec <= 0 {
		fmt.Println("benchcheck: no baseline, skipping regression check")
		return
	}
	if cur.SMARTSRelErrPct > base.SMARTSRelErrPct {
		fatal(fmt.Errorf("benchcheck: SMARTS estimate error %.4g%% above baseline %.4g%%",
			cur.SMARTSRelErrPct, base.SMARTSRelErrPct))
	}
	ratio := cur.InstrsPerSec / base.InstrsPerSec
	fmt.Printf("benchcheck: throughput %.2fx of baseline (%.3g instrs/sec)\n", ratio, base.InstrsPerSec)
	if ratio < 1-maxRegress {
		fatal(fmt.Errorf("benchcheck: simulator throughput regressed %.0f%% (limit %.0f%%)",
			100*(1-ratio), 100*maxRegress))
	}
}

func checkModel(lines []benchLine, baselinePath, outPath string, maxRegress, minDOptSpeedup float64) {
	cur := &ModelNumbers{}
	var have int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l.name, "BenchmarkFitMARS"):
			cur.FitMARSMs = l.metrics["ns/op"] * 1e-6
			have++
		case strings.HasPrefix(l.name, "BenchmarkDOptimal"):
			cur.DOptimalMs = l.metrics["fast-ms"]
			cur.DOptimalSpeedupX = l.metrics["speedup-x"]
			have++
		case strings.HasPrefix(l.name, "BenchmarkCrossValidate"):
			cur.CrossValMs = l.metrics["par-ms"]
			have++
		case strings.HasPrefix(l.name, "BenchmarkGASearch"):
			cur.GASearchMs = l.metrics["par-ms"]
			have++
		case strings.HasPrefix(l.name, "BenchmarkFeatureExtract"):
			cur.FeatureExtractMs = l.metrics["extract-ms"]
			have++
		}
	}
	if have != 5 {
		fatal(fmt.Errorf("benchcheck: model set needs 5 benchmarks, parsed %d", have))
	}

	base := &ModelNumbers{}
	writeAndLoadBaseline(cur, base, baselinePath, outPath)
	fmt.Printf("benchcheck: mars %.0fms, doptimal %.0fms (%.1fx vs ref), cv %.0fms, ga %.0fms, features %.0fms\n",
		cur.FitMARSMs, cur.DOptimalMs, cur.DOptimalSpeedupX,
		cur.CrossValMs, cur.GASearchMs, cur.FeatureExtractMs)
	if cur.DOptimalSpeedupX < minDOptSpeedup {
		fatal(fmt.Errorf("benchcheck: doptimal incremental speedup %.2fx below floor %.1fx",
			cur.DOptimalSpeedupX, minDOptSpeedup))
	}
	if base.FitMARSMs <= 0 {
		fmt.Println("benchcheck: no baseline, skipping regression check")
		return
	}
	// Wall-clock gates: a stage is a regression when it got slower than the
	// baseline by more than max-regress.
	stages := []struct {
		name      string
		cur, base float64
	}{
		{"fit_mars_ms", cur.FitMARSMs, base.FitMARSMs},
		{"doptimal_ms", cur.DOptimalMs, base.DOptimalMs},
		{"crossval_ms", cur.CrossValMs, base.CrossValMs},
		{"ga_ms", cur.GASearchMs, base.GASearchMs},
		{"feature_extract_ms", cur.FeatureExtractMs, base.FeatureExtractMs},
	}
	for _, s := range stages {
		if s.base <= 0 {
			continue
		}
		ratio := s.cur / s.base
		fmt.Printf("benchcheck: %s %.2fx of baseline (%.0fms)\n", s.name, ratio, s.base)
		if ratio > 1+maxRegress {
			fatal(fmt.Errorf("benchcheck: %s regressed %.0f%% (limit %.0f%%)",
				s.name, 100*(ratio-1), 100*maxRegress))
		}
	}
}

func checkFarm(lines []benchLine, baselinePath, outPath string, maxRegress, minSharedSpeedup float64) {
	cur := &FarmNumbers{}
	var have bool
	for _, l := range lines {
		if strings.HasPrefix(l.name, "BenchmarkMeasureBatchShared") {
			cur.GroupedMs = l.metrics["grouped-ms"]
			cur.SharedSpeedupX = l.metrics["shared-x"]
			cur.Points = l.metrics["points"]
			have = true
		}
	}
	if !have {
		fatal(fmt.Errorf("benchcheck: farm set needs BenchmarkMeasureBatchShared, not found in input"))
	}

	base := &FarmNumbers{}
	writeAndLoadBaseline(cur, base, baselinePath, outPath)
	fmt.Printf("benchcheck: grouped batch %.0fms, %.2fx vs per-point path (%d points)\n",
		cur.GroupedMs, cur.SharedSpeedupX, int(cur.Points))
	if cur.SharedSpeedupX < minSharedSpeedup {
		fatal(fmt.Errorf("benchcheck: shared-trace speedup %.2fx below floor %.1fx",
			cur.SharedSpeedupX, minSharedSpeedup))
	}
	if base.GroupedMs <= 0 {
		fmt.Println("benchcheck: no baseline, skipping regression check")
		return
	}
	ratio := cur.GroupedMs / base.GroupedMs
	fmt.Printf("benchcheck: grouped_ms %.2fx of baseline (%.0fms)\n", ratio, base.GroupedMs)
	if ratio > 1+maxRegress {
		fatal(fmt.Errorf("benchcheck: grouped_ms regressed %.0f%% (limit %.0f%%)",
			100*(ratio-1), 100*maxRegress))
	}
}

func checkDist(lines []benchLine, baselinePath, outPath string, maxRegress, minDistSpeedup, minHeteroSpeedup float64) {
	cur := &DistNumbers{}
	var have, haveHetero bool
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l.name, "BenchmarkDistributedSweep"):
			cur.TwoWorkerMs = l.metrics["two-worker-ms"]
			cur.DistSpeedupX = l.metrics["dist-speedup-x"]
			cur.Groups = l.metrics["groups"]
			have = true
		case strings.HasPrefix(l.name, "BenchmarkHeterogeneousSweep"):
			cur.HeteroMs = l.metrics["hetero-ms"]
			cur.HeteroSpeedupX = l.metrics["hetero-speedup-x"]
			haveHetero = true
		}
	}
	if !have {
		fatal(fmt.Errorf("benchcheck: dist set needs BenchmarkDistributedSweep, not found in input"))
	}
	if !haveHetero {
		fatal(fmt.Errorf("benchcheck: dist set needs BenchmarkHeterogeneousSweep, not found in input"))
	}

	base := &DistNumbers{}
	writeAndLoadBaseline(cur, base, baselinePath, outPath)
	fmt.Printf("benchcheck: two-worker sweep %.0fms, %.2fx vs one worker (%d groups)\n",
		cur.TwoWorkerMs, cur.DistSpeedupX, int(cur.Groups))
	fmt.Printf("benchcheck: heterogeneous sweep %.0fms, %.2fx vs uniform cap\n",
		cur.HeteroMs, cur.HeteroSpeedupX)
	if cur.DistSpeedupX < minDistSpeedup {
		fatal(fmt.Errorf("benchcheck: distributed speedup %.2fx below floor %.1fx",
			cur.DistSpeedupX, minDistSpeedup))
	}
	if cur.HeteroSpeedupX < minHeteroSpeedup {
		fatal(fmt.Errorf("benchcheck: capacity-weighted speedup %.2fx below floor %.1fx",
			cur.HeteroSpeedupX, minHeteroSpeedup))
	}
	if base.TwoWorkerMs <= 0 {
		fmt.Println("benchcheck: no baseline, skipping regression check")
		return
	}
	ratio := cur.TwoWorkerMs / base.TwoWorkerMs
	fmt.Printf("benchcheck: two_worker_ms %.2fx of baseline (%.0fms)\n", ratio, base.TwoWorkerMs)
	if ratio > 1+maxRegress {
		fatal(fmt.Errorf("benchcheck: two_worker_ms regressed %.0f%% (limit %.0f%%)",
			100*(ratio-1), 100*maxRegress))
	}
	if base.HeteroMs > 0 {
		hratio := cur.HeteroMs / base.HeteroMs
		fmt.Printf("benchcheck: hetero_ms %.2fx of baseline (%.0fms)\n", hratio, base.HeteroMs)
		if hratio > 1+maxRegress {
			fatal(fmt.Errorf("benchcheck: hetero_ms regressed %.0f%% (limit %.0f%%)",
				100*(hratio-1), 100*maxRegress))
		}
	}
}

func checkServe(lines []benchLine, baselinePath, outPath string, maxRegress, maxP99, maxErrRate float64) {
	cur := &ServeNumbers{}
	var have bool
	for _, l := range lines {
		if strings.HasPrefix(l.name, "BenchmarkServeLoadgen") {
			cur.RPS = l.metrics["rps"]
			cur.P50Ms = l.metrics["p50-ms"]
			cur.P95Ms = l.metrics["p95-ms"]
			cur.P99Ms = l.metrics["p99-ms"]
			cur.ErrRate = l.metrics["err-rate"]
			have = true
		}
	}
	if !have {
		fatal(fmt.Errorf("benchcheck: serve set needs BenchmarkServeLoadgen (cmd/loadgen output), not found in input"))
	}

	base := &ServeNumbers{}
	writeAndLoadBaseline(cur, base, baselinePath, outPath)
	fmt.Printf("benchcheck: %.0f req/s, p50 %.2fms p95 %.2fms p99 %.2fms, err rate %.4f\n",
		cur.RPS, cur.P50Ms, cur.P95Ms, cur.P99Ms, cur.ErrRate)
	// The SLO itself: hard caps that hold regardless of baseline history.
	if cur.P99Ms > maxP99 {
		fatal(fmt.Errorf("benchcheck: serve p99 %.2fms above SLO cap %.0fms", cur.P99Ms, maxP99))
	}
	if cur.ErrRate > maxErrRate {
		fatal(fmt.Errorf("benchcheck: serve error rate %.4f above cap %.4f", cur.ErrRate, maxErrRate))
	}
	if base.P99Ms <= 0 {
		fmt.Println("benchcheck: no baseline, skipping regression check")
		return
	}
	ratio := cur.P99Ms / base.P99Ms
	fmt.Printf("benchcheck: p99_ms %.2fx of baseline (%.2fms)\n", ratio, base.P99Ms)
	if ratio > 1+maxRegress {
		fatal(fmt.Errorf("benchcheck: serve p99 regressed %.0f%% (limit %.0f%%)",
			100*(ratio-1), 100*maxRegress))
	}
}

// writeAndLoadBaseline reads the baseline JSON into base (leaving it zeroed
// when the file is missing) and writes cur to outPath.
func writeAndLoadBaseline(cur, base interface{}, baselinePath, outPath string) {
	if data, err := os.ReadFile(baselinePath); err == nil {
		if err := json.Unmarshal(data, base); err != nil {
			fatal(fmt.Errorf("benchcheck: bad baseline %s: %v", baselinePath, err))
		}
	}
	data, _ := json.MarshalIndent(cur, "", "  ")
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// benchLine is one parsed `go test -bench` result line, e.g.
//
//	BenchmarkSimulatorThroughput  1  36981269 ns/op  2217653 instrs/op
//	BenchmarkSMARTSSpeedup        1  319079035 ns/op  5.688 est-relerr-%  1.180 speedup-x
type benchLine struct {
	name    string
	metrics map[string]float64
}

func benchLines(sc *bufio.Scanner) ([]benchLine, error) {
	var out []benchLine
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// Metrics come as "<value> <unit>" pairs after the iteration count.
		metrics := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: bad value %q in %q", f[i], sc.Text())
			}
			metrics[f[i+1]] = v
		}
		out = append(out, benchLine{name: f[0], metrics: metrics})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
