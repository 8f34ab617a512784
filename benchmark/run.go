package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// env is what every workload is built from: the seed, the load size and the
// scratch directory. Layers receive only inputs generated from these.
type env struct {
	seed     int64
	size     sizes
	workers  int
	scratch  string // per-run scratch directory, removed at exit
	expected *expectedFile
	updating bool // the digests are being rewritten, so none is pinned
}

// rng derives the generator for one purpose. Passes of one run measure the
// same inputs (draw 0), so that they differ by the host's pace alone and
// their median is a pass at its usual pace; only inputs that a pass uses up,
// like the points a writer has the server measure, are drawn per pass.
func (e *env) rng(purpose string, draw int) *rand.Rand {
	return rand.New(rand.NewSource(e.subSeed(purpose, draw)))
}

func (e *env) subSeed(purpose string, draw int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", e.seed, purpose, draw)
	return int64(h.Sum64() >> 1)
}

// passOut is what one timed pass reports.
type passOut struct {
	// e2e holds the pass's end-to-end values by metric name.
	e2e map[string]float64
	// layer holds per-layer values read from the layers' own counters.
	layer map[string]float64
	// samples holds per-request timings (seconds) by name.
	samples           map[string][]float64
	attempted, failed int64
	digest            uint64
}

// workload is one named scenario of BENCHMARK.json.
type workload interface {
	// setUp prepares what the passes need and is timed as setup_s. It is
	// called several times; tearDown runs between calls and at the end.
	setUp() error
	tearDown()
	// pass runs the scenario once on the inputs of pass i. A nil tracer is
	// the untraced run.
	pass(i int, tr *tracer) (*passOut, error)
	// verify checks the outputs of the last pass and returns what failed.
	// In a traced run it also fills st.layer: it reduces the spans and
	// replays single layers on the same inputs.
	verify(st *runState) []string
}

// runState is what a workload's verify step works from.
type runState struct {
	last *passOut
	// tr is nil in an untraced run.
	tr *tracer
	// samples are the per-request timings of every pass, by name.
	samples map[string][]float64
	// layer receives the per-layer metrics by name.
	layer map[string]float64
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what results.json keeps beside the headline value of a timing,
// all as measured, not yet read at the host's speed: the median, the tail
// percentile that has at least ten samples beyond it, and the count.
type detail struct {
	Median  float64 `json:"median"`
	TailP   float64 `json:"tail_p"`
	Tail    float64 `json:"tail"`
	Samples int     `json:"samples"`
}

// runReport is one workload's entry in results.json.
type runReport struct {
	result
	Passes int `json:"passes"`
	// HostFactor is what the run's durations were multiplied by (and its
	// rates divided by) to give the end-to-end metrics.
	HostFactor float64           `json:"host_factor"`
	Digest     string            `json:"digest"`
	Details    map[string]detail `json:"details,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
}

// Set-up runs up to setupReps times, and at least twice, for a steady
// setup_s; further runs are skipped once set-up has taken setupBudget seconds.
const (
	setupReps   = 5
	setupBudget = 4.0
)

// runWorkload measures one workload: set-up (several times, for a steady
// setup_s), passes until the time budget is spent, then the output checks.
// Between set-ups and between passes it samples the host's speed. With traced
// set, passes alternate untraced and traced so that the tracing overhead
// comes from the same run.
func runWorkload(name string, e *env, spec *benchSpec, seconds float64, traced bool) (*runReport, []span, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, nil, err
	}
	host := newHostClock(e.workers)
	var setups []float64
	reps := setupReps
	if e.size.onePass {
		reps = 1
	}
	for i := 0; i < reps && (i < 2 || sum(setups) < setupBudget); i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC()
		host.keepUp()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.tearDown()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	acc := map[string][]float64{}      // end-to-end values of untraced passes
	layerAcc := map[string][]float64{} // layer counters of every pass of a traced run
	samples := map[string][]float64{}  // per-request timings of every pass
	var tracedWall []float64
	rep := &runReport{Details: map[string]detail{}}
	var last *passOut
	start := time.Now()
	for i := 0; ; i++ {
		passTr := tr
		if i%2 == 0 {
			passTr = nil // even passes are untraced, in both modes
		}
		runtime.GC()
		host.keepUp()
		out, err := w.pass(i, passTr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: pass %d: %w", name, i, err)
		}
		last = out
		rep.Passes++
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		if i == 0 {
			rep.Digest = fmt.Sprintf("%016x", out.digest)
		}
		if passTr == nil {
			for k, v := range out.e2e {
				acc[k] = append(acc[k], v)
			}
		} else {
			tracedWall = append(tracedWall, out.e2e["wall_s"])
		}
		if traced {
			for k, v := range out.layer {
				layerAcc[k] = append(layerAcc[k], v)
			}
		}
		for k, vs := range out.samples {
			samples[k] = append(samples[k], vs...)
		}
		// Start another pass only if about half of it still fits, so runs
		// centre on the budget and overshoot by at most half a pass. A
		// traced run needs at least one pass of each kind.
		elapsed := time.Since(start).Seconds()
		done := e.size.onePass || elapsed+0.5*elapsed/float64(i+1) >= seconds
		if done && (!traced || i >= 1) {
			break
		}
	}
	host.keepUp()

	// Each end-to-end metric is the median over the run's passes, which
	// measure the same inputs, read at the host speed the samples found.
	acc["setup_s"] = setups
	rep.HostFactor = host.factor()
	values := map[string]float64{}
	for k, vs := range acc {
		m, _ := spec.endToEnd(k)
		values[k] = atHostSpeed(median(vs), m.Better, rep.HostFactor)
		rep.Details[k] = detailOf(vs)
	}
	layer := map[string]float64{}
	for k, vs := range layerAcc {
		layer[k] = median(vs)
	}
	if traced && len(tracedWall) > 0 {
		layer["trace_overhead_pct"] = 100 * (median(tracedWall)/median(acc["wall_s"]) - 1)
	}
	layer["exp.peak_rss_mb"] = peakRSSMB()
	layer["exp.host_calib_ms"] = 1000 * median(host.samples)

	rep.Failures = w.verify(&runState{last: last, tr: tr, samples: samples, layer: layer})
	if want := e.expected.digest(name, e); want != "" && want != rep.Digest {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("digest %s differs from expected.json %s", rep.Digest, want))
	}
	if rep.Failed > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%d of %d operations failed", rep.Failed, rep.Attempted))
	}

	list, src := spec.EndToEnd, values
	if traced {
		list, src = spec.PerLayer, layer
	}
	rep.Metrics = map[string]metricValue{}
	for _, m := range list {
		v, ok := src[m.Name]
		if !traced && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("end-to-end metric %s has no finite non-zero value", m.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k := range src {
		if _, ok := rep.Metrics[k]; !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s is measured but not declared in BENCHMARK.json", k))
		}
	}
	rep.Correct = len(rep.Failures) == 0
	return rep, tr.snapshot(), nil
}

func detailOf(vs []float64) detail {
	p, v := tailPercentile(vs)
	return detail{Median: median(vs), TailP: p, Tail: v, Samples: len(vs)}
}

// peakRSSMB is the memory the Go runtime has obtained from the OS, which
// only grows: an upper bound on the peak resident set that needs no read
// outside the checkout.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// newScratch makes the run's scratch directory under the output directory.
func newScratch(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "scratch-")
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
