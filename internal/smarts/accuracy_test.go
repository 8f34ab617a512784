package smarts

import (
	"math"
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// What the sampler is good for at this repository's program lengths. The
// train inputs commit 1.3–4.3 M instructions, so DefaultSampler (the paper's
// 1 window in 1000, sized for SPEC runs of 10⁹⁺ instructions) draws 2–5
// windows from one: over the seven train workloads × {O2, O3} × the three
// Table 5 configurations its estimate is off by 266 % on average and 797 % at
// worst, and its interval, 65–217 % of the estimate wide, excludes nothing
// (the error exceeds the relative half-width itself in 31 of the 42 cases).
// At 1 window in 50 (27–87 windows) the mean error is 16.2 %, the maximum
// 47.7 %, and the interval covers the detailed count in all 42 cases — but
// only because it is 8–98 % wide. 1 in 20 with 1000 instructions of detailed
// warm-up still reads 6.3 % mean and 32.7 % max. All of that is at or above
// the 5–10 % error the empirical models are fitted to reach, on programs whose
// detailed run costs ~40 ms, which is why no sweep measures through the
// sampler; the error falls with the window count (TestEstimateErrorPinned:
// 5.7 % at 173 windows), so the library earns its keep on programs some tens
// of millions of instructions and longer. The two tests below hold what does
// hold today.

// relErrAndCover compares a sampled estimate with the detailed cycle count:
// the relative error, and whether the 99.7 % interval est·(1 ± RelCI997)
// contains the detailed count.
func relErrAndCover(res *Result, full sim.Stats) (relErr float64, covered bool) {
	diff := math.Abs(res.EstimatedCycles - float64(full.Cycles))
	return diff / float64(full.Cycles), diff <= res.RelCI997*res.EstimatedCycles
}

// TestEstimateErrorPinned pins the one sampled estimate the repository
// quotes (BenchmarkSMARTSSpeedup's est-relerr-%): 181.mcf on its ref input
// (8.6 M instructions, 173 windows) at O2 on the typical configuration, 1
// window of 1000 instructions in 50. The estimate is deterministic, so its
// error is a property, not a measurement: it reads 5.688 % and may not grow.
func TestEstimateErrorPinned(t *testing.T) {
	w := workloads.MustGet("181.mcf", workloads.Ref)
	prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	full, err := sim.Simulate(prog, cfg, 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, cfg, Sampler{WindowSize: 1000, Interval: 50}, 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	relErr, covered := relErrAndCover(res, full)
	t.Logf("full=%d est=%.0f relerr=%.3f%% windows=%d CI=%.2f%%",
		full.Cycles, res.EstimatedCycles, 100*relErr, res.Windows, 100*res.RelCI997)
	if relErr > 0.057 {
		t.Errorf("sampled estimate off by %.3f%%, above the pinned 5.7%%", 100*relErr)
	}
	if !covered {
		t.Errorf("99.7%% interval ±%.2f%% misses the detailed count (error %.3f%%)", 100*res.RelCI997, 100*relErr)
	}
}

// TestIntervalCoversDetailed is the coverage property: at 1 window in 50 the
// 99.7 % interval contains the detailed cycle count for every train workload
// on each of the three Table 5 configurations.
func TestIntervalCoversDetailed(t *testing.T) {
	s := Sampler{WindowSize: 1000, Interval: 50}
	names := []string{"constrained", "typical", "aggressive"}
	cfgs := []sim.Config{sim.Constrained(), sim.DefaultConfig(), sim.Aggressive()}
	for _, name := range workloads.Names() {
		w := workloads.MustGet(name, workloads.Train)
		prog, _, err := compiler.Compile(w.Parse(), compiler.O2())
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			full, err := sim.Simulate(prog, cfg, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, cfg, s, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Windows == 0 {
				t.Fatalf("%s/%s: sampler fell back to detailed simulation", name, names[i])
			}
			if relErr, covered := relErrAndCover(res, full); !covered {
				t.Errorf("%s/%s: interval ±%.1f%% over %d windows misses the detailed count (error %.1f%%)",
					name, names[i], 100*res.RelCI997, res.Windows, 100*relErr)
			}
		}
	}
}
