// Package smarts implements SMARTS-style statistically sampled simulation
// (Wunderlich et al., ISCA 2003), the methodology the paper uses to make
// whole-program cycle-accurate measurement affordable: small detailed
// windows are simulated at fixed intervals, the instructions in between are
// fast-forwarded with functional warming of the caches and branch predictor,
// and the per-window CPI sample mean yields a whole-run cycle estimate with
// a confidence interval from the central limit theorem.
package smarts

import (
	"errors"
	"math"

	"repro/internal/isa"
	"repro/internal/sim"
)

// Sampler configures systematic sampling.
type Sampler struct {
	// WindowSize is the number of instructions per detailed window (the
	// paper uses 1000).
	WindowSize int64
	// Interval is the sampling period in windows: 1 in every Interval
	// windows is simulated in detail (the paper uses 1000).
	Interval int64
	// Offset shifts which window in each period is detailed (0 <=
	// Offset < Interval); vary it to draw independent sample sets.
	Offset int64
	// Warmup is the number of instructions simulated in detail (but not
	// measured) immediately before each detailed window, removing the
	// cold-pipeline bias at window entry. SMARTS calls this detailed
	// warming; functional warming still covers caches and the predictor.
	Warmup int64
}

func (s Sampler) validate() error {
	if s.WindowSize <= 0 || s.Interval <= 0 {
		return errors.New("smarts: window size and interval must be positive")
	}
	if s.Offset < 0 || s.Offset >= s.Interval {
		return errors.New("smarts: offset out of range")
	}
	return nil
}

// DefaultSampler returns the paper's sampling parameters, sized for SPEC runs
// of billions of instructions. On this repository's workloads (1–9 M
// instructions) it draws a handful of windows and the estimate is off by
// multiples; accuracy_test.go records what each sampling density gives at
// that length.
func DefaultSampler() Sampler {
	return Sampler{WindowSize: 1000, Interval: 1000}
}

// Result holds a sampled simulation estimate.
type Result struct {
	EstimatedCycles float64
	Instructions    int64
	Windows         int // detailed windows measured
	MeanCPI         float64
	StdCPI          float64
	// RelCI997 is the relative half-width of the 99.7% (3σ) confidence
	// interval on the mean CPI.
	RelCI997  float64
	ExitValue int64
	// MeanEPI and EstimatedEnergy extend the estimator to the energy
	// response the same way MeanCPI extends to cycles: per-window energy
	// per instruction, scaled by the whole-run instruction count.
	MeanEPI         float64
	EstimatedEnergy float64
	// FunctionalInstrs counts the instructions executed functionally to
	// drive warming and sampling. Run executes the program once, so it
	// equals Instructions; RunParallel shares a single functional trace
	// across all workers, so it also equals Instructions — rather than
	// workers× it — which is the point of the shared-trace design.
	FunctionalInstrs int64
}

// sampleState is the per-offset sampling state machine: it cuts the
// committed stream into runs of functional-warming, detailed-warmup and
// measured instructions, drives one timing model accordingly, and collects
// the per-window CPI samples. Every driver — Run, RunParallel, the
// checkpoint builder and CheckpointSet.Replay — feeds it through feedChunk,
// and sim.CPU's chunk kernels may be cut anywhere, so a given (program,
// config, sampler) yields bit-for-bit identical windows whichever driver
// runs it and however the trace is chunked.
type sampleState struct {
	s   Sampler
	cpu *sim.CPU
	dec *sim.DecodedProgram
	rec *CheckpointSet // when non-nil, records every detailed region

	cpis          []float64
	epis          []float64 // per-window energy per instruction
	inDetail      bool
	measureStart  int64
	measureStartE float64
	windowInstrs  int64

	// Division-free classification: phase is the instruction index modulo
	// the sampling period; the measured window is phase in [mStart, mEnd)
	// and detailed warmup is [wStart, mStart), wrapping across the period
	// boundary when wStart is negative.
	phase  int64
	period int64
	wStart int64
	mStart int64
	mEnd   int64
}

func newSampleState(s Sampler, cfg sim.Config, dec *sim.DecodedProgram) *sampleState {
	period := s.WindowSize * s.Interval
	mStart := s.Offset * s.WindowSize
	return &sampleState{
		s:      s,
		cpu:    sim.NewCPU(cfg),
		dec:    dec,
		period: period,
		// A warmup of period-WindowSize or more makes everything detailed.
		wStart: mStart - max(0, min(s.Warmup, period-s.WindowSize)),
		mStart: mStart,
		mEnd:   mStart + s.WindowSize,
	}
}

// span classifies the instruction at the current phase — measured iff in
// the detailed window; detailed (but unmeasured) iff within Warmup
// instructions before the next window — and reports how many instructions
// from here on share that classification, capped at the period end so a
// warmup that wraps the boundary is two spans.
func (t *sampleState) span() (detailed, measured bool, n int64) {
	ph := t.phase
	switch wrap := t.wStart + t.period; {
	case ph >= wrap:
		return true, false, t.period - ph
	case ph >= t.mEnd:
		return false, false, min(wrap, t.period) - ph
	case ph >= t.mStart:
		return true, true, t.mEnd - ph
	case ph >= t.wStart:
		return true, false, t.mStart - ph
	}
	return false, false, t.wStart - ph
}

// feedChunk advances the state machine over one chunk of the committed
// trace, cutting it at the sampler's phase boundaries: one call into
// sim.CPU.WarmChunk or FeedChunk per run of like-classified instructions.
func (t *sampleState) feedChunk(ents []sim.TraceEntry) {
	for len(ents) > 0 {
		detailed, measured, n := t.span()
		run := ents[:min(n, int64(len(ents)))]
		ents = ents[len(run):]
		if !detailed {
			t.cpu.WarmChunk(t.dec, run)
		} else {
			if !t.inDetail {
				if t.rec != nil {
					// Region entry: the warm state the detailed region
					// starts from, snapshotted before anything feeds.
					t.rec.regions = append(t.rec.regions, regionCheckpoint{phase: t.phase, warm: t.cpu.SnapshotWarm()})
				}
				// Fresh pipeline over the warmed microarch state.
				t.cpu.ResetTiming()
				t.inDetail = true
			}
			if t.rec != nil {
				cur := &t.rec.regions[len(t.rec.regions)-1]
				cur.ents = append(cur.ents, run...)
			}
			if measured && t.windowInstrs == 0 {
				st := t.cpu.Stats()
				t.measureStart, t.measureStartE = st.Cycles, st.Energy
			}
			t.cpu.FeedChunk(t.dec, run)
			if measured {
				if t.windowInstrs += int64(len(run)); t.windowInstrs == t.s.WindowSize {
					t.flush()
				}
			}
		}
		if t.phase += int64(len(run)); t.phase == t.period {
			t.phase = 0
		}
	}
}

func (t *sampleState) flush() {
	if t.windowInstrs > 0 {
		st := t.cpu.Stats()
		c := st.Cycles - t.measureStart
		t.cpis = append(t.cpis, float64(c)/float64(t.windowInstrs))
		t.epis = append(t.epis, (st.Energy-t.measureStartE)/float64(t.windowInstrs))
	}
	t.windowInstrs = 0
	t.inDetail = false
}

// result folds the collected windows into a Result; ok is false when no
// window completed (program shorter than one sampling period).
func (t *sampleState) result(instrs, exitValue int64) (*Result, bool) {
	t.flush()
	if len(t.cpis) == 0 {
		return nil, false
	}
	mean, std := meanStd(t.cpis)
	rel := 0.0
	if mean > 0 {
		rel = 3 * std / (math.Sqrt(float64(len(t.cpis))) * mean)
	}
	meanE, _ := meanStd(t.epis)
	return &Result{
		EstimatedCycles: mean * float64(instrs),
		Instructions:    instrs,
		Windows:         len(t.cpis),
		MeanCPI:         mean,
		StdCPI:          std,
		RelCI997:        rel,
		ExitValue:       exitValue,
		MeanEPI:         meanE,
		EstimatedEnergy: meanE * float64(instrs),
	}, true
}

// fallbackDetailed is the exact path for programs shorter than one sampling
// period: simulate everything in detail.
func fallbackDetailed(prog *isa.Program, cfg sim.Config, maxInstrs int64) (*Result, error) {
	st, err := sim.Simulate(prog, cfg, maxInstrs)
	if err != nil {
		return nil, err
	}
	return &Result{
		EstimatedCycles:  float64(st.Cycles),
		Instructions:     st.Instructions,
		Windows:          0,
		MeanCPI:          float64(st.Cycles) / float64(st.Instructions),
		ExitValue:        st.ExitValue,
		MeanEPI:          st.Energy / float64(st.Instructions),
		EstimatedEnergy:  st.Energy,
		FunctionalInstrs: st.Instructions,
	}, nil
}

// ErrBudget reports a sampled run that exceeded its instruction budget.
// Callers classify on the sentinel (errors.Is), never on the message text.
var ErrBudget = errors.New("smarts: instruction budget exceeded")

// Run simulates prog under cfg with systematic sampling and returns the
// cycle estimate. maxInstrs bounds the run.
func Run(prog *isa.Program, cfg sim.Config, s Sampler, maxInstrs int64) (*Result, error) {
	return RunParallel(prog, cfg, s, maxInstrs, 1)
}

// RunParallel draws `workers` independent sample sets concurrently — each
// with a distinct window offset, the mechanism SMARTS prescribes for
// independent draws — and pools their windows into one estimate. The pooled
// mean CPI has ~workers× the sample count of a single Run, tightening the
// confidence interval.
//
// The program is executed functionally exactly once: sim.Executor.Trace
// hands the committed-instruction trace to one sampling state per offset,
// each owning its own caches and branch predictor, so the per-offset window
// populations are bit-for-bit identical to what `workers` separate Runs
// would produce. workers is clamped to [1, s.Interval] (offsets must be
// distinct); one worker is Run, in the calling goroutine.
func RunParallel(prog *isa.Program, cfg sim.Config, s Sampler, maxInstrs int64, workers int) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Offsets strided across the interval.
	workers = max(1, min(workers, int(s.Interval)))
	stride := s.Interval / int64(workers)
	samplers := make([]Sampler, workers)
	for k := range samplers {
		samplers[k] = s
		samplers[k].Offset = (s.Offset + int64(k)*stride) % s.Interval
	}
	results, err := drive(prog, cfg, samplers, maxInstrs, nil)
	if err != nil {
		return nil, err
	}
	return pool(results), nil
}

// drive is the one sampled run: a single sim.Executor.Trace pass over prog
// feeding one sampleState per sampler, the first of which records its
// detailed regions into rec when rec is non-nil. It returns one Result per
// sampler, or the single exact Result of fallbackDetailed when the program
// is shorter than one sampling period (Windows == 0, rec left incomplete).
func drive(prog *isa.Program, cfg sim.Config, samplers []Sampler, maxInstrs int64, rec *CheckpointSet) ([]*Result, error) {
	exe := sim.NewExecutor(prog)
	states := make([]*sampleState, len(samplers))
	consumers := make([]func([]sim.TraceEntry), len(samplers))
	for k, s := range samplers {
		states[k] = newSampleState(s, cfg, exe.Decoded())
		consumers[k] = states[k].feedChunk
	}
	states[0].rec = rec
	if err := exe.Trace(maxInstrs, consumers...); err != nil {
		if sim.IsBudget(err) {
			return nil, ErrBudget
		}
		return nil, err
	}
	instrs, exit := exe.Count, exe.Regs[isa.RegRV]
	results := make([]*Result, len(states))
	for k, state := range states {
		r, ok := state.result(instrs, exit)
		if !ok {
			r, err := fallbackDetailed(prog, cfg, maxInstrs)
			return []*Result{r}, err
		}
		r.FunctionalInstrs = instrs // the single shared pass
		results[k] = r
	}
	if rec != nil {
		rec.dec, rec.instrs, rec.exit = exe.Decoded(), instrs, exit
	}
	return results, nil
}

// pool folds per-offset window populations into one estimate: weighted mean
// and total variance (within + between run means) over all windows. A lone
// population is returned as it is.
func pool(results []*Result) *Result {
	if len(results) == 1 {
		return results[0]
	}
	var n float64
	var sum, sumSq, sumE float64
	pooled := &Result{
		Instructions:     results[0].Instructions,
		ExitValue:        results[0].ExitValue,
		FunctionalInstrs: results[0].FunctionalInstrs,
	}
	for _, r := range results {
		w := float64(r.Windows)
		n += w
		sum += w * r.MeanCPI
		sumSq += w * (r.StdCPI*r.StdCPI + r.MeanCPI*r.MeanCPI)
		sumE += w * r.MeanEPI
		pooled.Windows += r.Windows
	}
	pooled.MeanCPI = sum / n
	pooled.StdCPI = math.Sqrt(sumSq/n - pooled.MeanCPI*pooled.MeanCPI)
	if pooled.MeanCPI > 0 {
		pooled.RelCI997 = 3 * pooled.StdCPI / (math.Sqrt(n) * pooled.MeanCPI)
	}
	pooled.EstimatedCycles = pooled.MeanCPI * float64(pooled.Instructions)
	pooled.MeanEPI = sumE / n
	pooled.EstimatedEnergy = pooled.MeanEPI * float64(pooled.Instructions)
	return pooled
}

// RunToConfidence repeatedly increases sampling density (halving the
// interval) until the 99.7% confidence half-width falls below relTarget or
// the interval reaches 1 (full detail). This is the iterative refinement
// loop SMARTS prescribes.
func RunToConfidence(prog *isa.Program, cfg sim.Config, s Sampler, maxInstrs int64, relTarget float64) (*Result, error) {
	for {
		res, err := Run(prog, cfg, s, maxInstrs)
		if err != nil {
			return nil, err
		}
		if res.RelCI997 <= relTarget || s.Interval <= 1 {
			return res, nil
		}
		s.Interval /= 2
		if s.Offset >= s.Interval {
			s.Offset = 0
		}
	}
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	v /= float64(len(xs))
	return m, math.Sqrt(v)
}
