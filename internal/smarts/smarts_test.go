package smarts

import (
	"math"
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
)

const loopSrc = `
int data[4096];
int main() {
	for (int i = 0; i < 4096; i = i + 1) {
		data[i] = i * 3 + 1;
	}
	int acc = 0;
	for (int r = 0; r < 60; r = r + 1) {
		for (int i = 0; i < 4096; i = i + 1) {
			acc = acc + data[i] * r;
		}
	}
	return acc;
}`

func TestSampledEstimateTracksDetailed(t *testing.T) {
	prog, _, err := compiler.CompileSource(loopSrc, compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	full, err := sim.Simulate(prog, cfg, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, cfg, Sampler{WindowSize: 1000, Interval: 20}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows < 10 {
		t.Fatalf("too few windows: %d", res.Windows)
	}
	relErr := math.Abs(res.EstimatedCycles-float64(full.Cycles)) / float64(full.Cycles)
	if relErr > 0.10 {
		t.Fatalf("sampled estimate off by %.1f%% (est %.0f, full %d)",
			100*relErr, res.EstimatedCycles, full.Cycles)
	}
	if res.ExitValue != full.ExitValue {
		t.Fatal("functional result must not depend on sampling")
	}
	t.Logf("full=%d est=%.0f relerr=%.2f%% windows=%d CI=%.2f%%",
		full.Cycles, res.EstimatedCycles, 100*relErr, res.Windows, 100*res.RelCI997)
}

func TestShortProgramFallsBackToDetailed(t *testing.T) {
	prog, _, err := compiler.CompileSource(`int main() { return 7; }`, compiler.O0())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, sim.DefaultConfig(), DefaultSampler(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The whole program fits in the first (detailed) window, so the
	// estimate is exact-by-construction.
	if res.Windows > 1 || res.ExitValue != 7 || res.EstimatedCycles <= 0 {
		t.Fatalf("short-program result wrong: %+v", res)
	}
}

// TestRunToConfidenceTightensCI drives SMARTS's refinement loop — halve the
// sampling interval until the 99.7% confidence interval meets a target — and
// checks that denser sampling reaches a target four times tighter.
func TestRunToConfidenceTightensCI(t *testing.T) {
	prog, _, err := compiler.CompileSource(loopSrc, compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	s := Sampler{WindowSize: 500, Interval: 64}
	loose, err := Run(prog, cfg, s, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for res := loose; res.RelCI997 > loose.RelCI997/4; {
		if s.Interval /= 2; s.Interval < 1 {
			t.Fatalf("full detail did not reach %v from %v", loose.RelCI997/4, loose.RelCI997)
		}
		if res, err = Run(prog, cfg, s, 100_000_000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	prog, _, err := compiler.CompileSource(`int main() { return 0; }`, compiler.O0())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, sim.DefaultConfig(), Sampler{WindowSize: 0, Interval: 10}, 1000); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := Run(prog, sim.DefaultConfig(), Sampler{WindowSize: 10, Interval: 10, Offset: 10}, 1000); err == nil {
		t.Error("offset out of range should fail")
	}
}

func TestOffsetsGiveSimilarEstimates(t *testing.T) {
	prog, _, err := compiler.CompileSource(loopSrc, compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	a, err := Run(prog, cfg, Sampler{WindowSize: 1000, Interval: 10, Offset: 0}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(prog, cfg, Sampler{WindowSize: 1000, Interval: 10, Offset: 5}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(a.EstimatedCycles-b.EstimatedCycles) / a.EstimatedCycles
	if rel > 0.10 {
		t.Fatalf("offset sensitivity too high: %.1f%%", 100*rel)
	}
}

func TestWarmupReducesBias(t *testing.T) {
	prog, _, err := compiler.CompileSource(loopSrc, compiler.O2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	full, err := sim.Simulate(prog, cfg, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(prog, cfg, Sampler{WindowSize: 200, Interval: 50}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(prog, cfg, Sampler{WindowSize: 200, Interval: 50, Warmup: 800}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(est float64) float64 {
		return math.Abs(est-float64(full.Cycles)) / float64(full.Cycles)
	}
	t.Logf("full=%d cold=%.0f (%.2f%%) warm=%.0f (%.2f%%)",
		full.Cycles, cold.EstimatedCycles, 100*errOf(cold.EstimatedCycles),
		warm.EstimatedCycles, 100*errOf(warm.EstimatedCycles))
	// With tiny windows the cold-start bias is large; detailed warming
	// must shrink it substantially.
	if errOf(warm.EstimatedCycles) > errOf(cold.EstimatedCycles) {
		t.Fatalf("warmup should not increase bias: cold %.2f%% warm %.2f%%",
			100*errOf(cold.EstimatedCycles), 100*errOf(warm.EstimatedCycles))
	}
}
