// Package exp is the experiment harness: it drives the full pipeline of the
// paper — D-optimal design over the joint compiler/microarchitecture space,
// compile-and-simulate measurement of each design point, empirical model
// fitting, and model-based search — and regenerates every table and figure
// of the evaluation section at configurable scale.
package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/workloads"
)

// Scale sets the experiment sizes. The paper's full scale (400 training +
// 100 test simulations per program) is hours of single-core simulation; the
// default scale preserves the methodology at a fraction of the cost.
type Scale struct {
	Name        string
	TrainPoints int
	TestPoints  int
	// DesignExpansion is the model the D-optimality criterion targets.
	// All predefined scales use the main-effects criterion: the
	// interaction expansion has 326 terms in the 25-variable space, which
	// makes Fedorov exchange infeasibly slow and needs ≥ 326 points for a
	// nonsingular information matrix. (The paper used R's AlgDesign at
	// n=400; our designs are D-optimal for main effects and random-ish in
	// the interaction subspace, which Table 3 shows is sufficient.)
	DesignExpansion doe.Expansion
	GAPopulation    int
	GAGenerations   int
}

// Predefined scales.
var (
	Quick   = Scale{Name: "quick", TrainPoints: 40, TestPoints: 12, DesignExpansion: doe.ExpandLinear, GAPopulation: 24, GAGenerations: 12}
	Default = Scale{Name: "default", TrainPoints: 120, TestPoints: 40, DesignExpansion: doe.ExpandLinear, GAPopulation: 60, GAGenerations: 40}
	Paper   = Scale{Name: "paper", TrainPoints: 400, TestPoints: 100, DesignExpansion: doe.ExpandLinear, GAPopulation: 80, GAGenerations: 60}
)

// ScaleByName resolves "quick", "default" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q (quick|default|paper)", name)
}

// Harness runs measurements with caching and deterministic seeding. All
// measurement flows through an internal farm.Farm: a bounded worker pool
// with single-flight deduplication and a durable, journaled result store,
// so concurrent callers never duplicate a compile+simulate and parallel
// runs are bit-for-bit identical to serial ones (results are keyed by
// point, which is order-independent).
type Harness struct {
	Scale Scale
	Seed  int64
	// CacheDir, when non-empty, persists measurements to
	// <CacheDir>/measurements-<scale>.json (plus a crash-recovery journal
	// alongside it) across runs.
	CacheDir string
	// Log receives progress lines; nil silences them.
	Log io.Writer

	// Workers bounds the measurement farm's concurrency AND the analytics
	// side (model fitting, cross-validation folds, Fig 5's fits, Table 4's
	// rankings). Zero means runtime.GOMAXPROCS(0); one reproduces the
	// serial path. Every analytics result is bit-for-bit identical for any
	// value.
	Workers int

	// Measure, when non-nil, replaces the farm's compile+simulate executor
	// — the injection point for stub pipelines in tests and instrumented
	// ones in services. Like the other configuration fields it must be set
	// before the first measurement.
	Measure farm.MeasureFunc

	// MakeBackend, when non-nil, builds the measurement backend instead of
	// the in-process farm.New — the hook the distributed coordinator
	// (internal/dist) plugs into. It receives the fully populated options,
	// durable store included, so backends inherit the harness's cache
	// exactly as the local farm would.
	MakeBackend func(opts farm.Options) farm.Backend

	mu       sync.Mutex
	farm     farm.Backend
	borrowed bool            // farm belongs to the harness AtScale was called on
	merged   map[string]bool // scales whose cache file AtScale has read into the store
	space    *doe.Space

	designMu sync.Mutex
	train    trainDesign
}

// trainDesign is a memoized TrainDesign and what it was built from.
type trainDesign struct {
	points    int
	expansion doe.Expansion
	seed      int64
	pts       []doe.Point
}

// NewHarness returns a harness at the given scale with seed 1.
func NewHarness(scale Scale) *Harness {
	return &Harness{Scale: scale, Seed: 1, space: doe.JointSpace()}
}

// Space returns the joint 25-variable space the harness experiments on.
func (h *Harness) Space() *doe.Space {
	if h.space == nil {
		h.space = doe.JointSpace()
	}
	return h.space
}

func (h *Harness) logf(format string, args ...interface{}) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format+"\n", args...)
	}
}

func (h *Harness) cachePath() string {
	return filepath.Join(h.CacheDir, "measurements-"+h.Scale.Name+".json")
}

// Farm returns the harness's measurement backend — the in-process farm, or
// whatever MakeBackend builds (the distributed coordinator) — creating it
// (and loading the durable store when CacheDir is set) on first use.
// Configuration fields (CacheDir, Workers, Log, MakeBackend) must be set
// before the first measurement.
func (h *Harness) Farm() farm.Backend {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.farm != nil {
		return h.farm
	}
	store := farm.MemStore()
	if h.CacheDir != "" {
		s, err := farm.Open(h.cachePath(), h.Log)
		if err != nil {
			// A cache is an optimization; run without durability rather
			// than fail the experiment.
			h.logf("cache open failed (running without persistence): %v", err)
		} else {
			store = s
		}
	}
	opts := farm.Options{
		Workers: h.Workers,
		Store:   store,
		Measure: h.Measure,
		Log:     h.Log,
	}
	if h.MakeBackend != nil {
		h.farm = h.MakeBackend(opts)
	} else {
		h.farm = farm.New(opts)
	}
	return h.farm
}

// AtScale returns a harness that runs sc's designs and GA sizes on h's
// measurement plane: the same backend, hence the same workers, binary cache
// and store. Measurement keys carry no scale, so a plane per scale would hold
// the same points twice and simulate them twice. The first call for a scale
// reads that scale's cache file, when CacheDir has one from a run at that
// scale, into the shared store, so a warm directory stays warm. The plane
// stays h's: Close on the returned harness does nothing, and SaveCache
// checkpoints the shared store into h's file.
func (h *Harness) AtScale(sc Scale) *Harness {
	b := &Harness{Scale: sc, Seed: h.Seed, CacheDir: h.CacheDir, Log: h.Log, Workers: h.Workers,
		farm: h.Farm(), borrowed: true, space: h.Space()}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.CacheDir == "" || sc.Name == h.Scale.Name || h.merged[sc.Name] {
		return b
	}
	if h.merged == nil {
		h.merged = map[string]bool{}
	}
	h.merged[sc.Name] = true
	if _, err := os.Stat(b.cachePath()); err != nil {
		return b
	}
	old, err := farm.Open(b.cachePath(), h.Log)
	if err != nil {
		h.logf("cache %s unreadable (scale %s starts cold): %v", b.cachePath(), sc.Name, err)
		return b
	}
	entries := old.Entries()
	added, _, err := b.farm.Store().Merge(entries)
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		h.logf("cache %s: %v", b.cachePath(), err)
	}
	h.logf("cache %s: %d of %d entries new to the store", b.cachePath(), added, len(entries))
	return b
}

// backend is the measurement backend if one has been built, nil otherwise.
func (h *Harness) backend() farm.Backend {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.farm
}

// Drain asks the backend to stop admitting work to executors and to finish
// (or requeue) in-flight work within ctx. Only backends with remote leases
// implement it — the in-process farm drains in Close — so for local farms
// this is a no-op.
func (h *Harness) Drain(ctx context.Context) error {
	if d, ok := h.backend().(farm.Drainer); ok {
		return d.Drain(ctx)
	}
	return nil
}

// FarmStats snapshots the measurement farm's instrumentation counters. A
// zero Stats (Workers == 0) means no measurement has run yet.
func (h *Harness) FarmStats() farm.Stats {
	f := h.backend()
	if f == nil {
		return farm.Stats{}
	}
	return f.Stats()
}

// SaveCache checkpoints the measurement store if CacheDir is set: the full
// map is written to a temp file and atomically renamed over the checkpoint,
// then the journal is truncated, so a crash never loses or corrupts it. A
// harness that has measured nothing has nothing to save.
func (h *Harness) SaveCache() error {
	f := h.backend()
	if f == nil {
		return nil
	}
	return f.Checkpoint()
}

// checkpoint is SaveCache for a run that goes on without durability when
// the save fails: the failure is logged, not returned.
func (h *Harness) checkpoint() {
	if err := h.SaveCache(); err != nil {
		h.logf("cache save failed: %v", err)
	}
}

// Close drains the farm's workers and flushes the store. The harness
// rejects new measurements afterwards. A harness from AtScale borrows its
// farm and closes nothing.
func (h *Harness) Close() error {
	f := h.backend()
	if f == nil || h.borrowed {
		return nil
	}
	return f.Close()
}

// rngFor derives a deterministic sub-generator for a named purpose.
func (h *Harness) rngFor(purpose string) *rand.Rand {
	hash := fnv.New64a()
	fmt.Fprintf(hash, "%d|%s", h.Seed, purpose)
	return rand.New(rand.NewSource(int64(hash.Sum64())))
}

// TrainDesign returns the D-optimal training design for one program (shared
// across programs in the paper; we also share it, keyed only by the scale
// and seed, so measurements amortize). The exchange runs once per harness
// for a (TrainPoints, DesignExpansion, Seed): later calls return the same
// slice, which callers must not modify.
func (h *Harness) TrainDesign() []doe.Point {
	h.designMu.Lock()
	defer h.designMu.Unlock()
	d := &h.train
	if d.pts == nil || d.points != h.Scale.TrainPoints || d.expansion != h.Scale.DesignExpansion || d.seed != h.Seed {
		des := doe.DOptimal(h.Space(), h.Scale.TrainPoints, h.rngFor("train-design"),
			doe.DOptions{Expansion: h.Scale.DesignExpansion, MaxSweeps: 8})
		pts := des.Points[:len(des.Points):len(des.Points)] // an append copies
		*d = trainDesign{points: h.Scale.TrainPoints, expansion: h.Scale.DesignExpansion, seed: h.Seed, pts: pts}
	}
	return d.pts
}

// TestDesign returns the independently generated test set.
func (h *Harness) TestDesign() []doe.Point {
	return h.Space().LatinHypercube(h.Scale.TestPoints, h.rngFor("test-design"))
}

// BuildDataset measures the workload at every point — in parallel, on the
// farm's worker pool — and returns the coded dataset. The dataset is
// bit-identical regardless of worker count: values are keyed by point and
// assembled in input order.
func (h *Harness) BuildDataset(w workloads.Workload, points []doe.Point) (*model.Dataset, error) {
	jobs := make([]farm.Job, len(points))
	for i, p := range points {
		jobs[i] = farm.Job{Workload: w, Point: p}
	}
	res, err := h.measureAll(w.Key(), jobs)
	if err != nil {
		return nil, err
	}
	return h.dataset(points, res)
}

// dataset codes points and pairs them with their measured cycles.
func (h *Harness) dataset(points []doe.Point, res []farm.Result) (*model.Dataset, error) {
	xs := make([][]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = h.Space().Code(p), res[i].Cycles
	}
	return model.NewDataset(xs, ys)
}

// measureAll measures jobs as one batch — the planner groups the ones that
// share a binary, and the pool runs groups in parallel — and returns one
// result per job in input order, or the error of the earliest failing job by
// input index: the one a serial loop over the same list stops at. It logs
// how the plane answered the batch, under the name what.
func (h *Harness) measureAll(what string, jobs []farm.Job) ([]farm.Result, error) {
	before := h.Farm().Stats()
	res, errs := h.Farm().DoJobs(context.Background(), jobs)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: measuring %s: %w", jobs[i].Workload.Key(), err)
		}
	}
	after := h.Farm().Stats()
	h.logf("  %s: %d points measured (%d simulated, %d cached, %d coalesced)", what, len(jobs),
		after.SimsExecuted-before.SimsExecuted, after.CacheHits-before.CacheHits, after.Coalesced-before.Coalesced)
	return res, nil
}

// ProgramData bundles the train/test measurements for one program.
type ProgramData struct {
	Workload    workloads.Workload
	TrainPoints []doe.Point
	TestPoints  []doe.Point
	Train       *model.Dataset
	Test        *model.Dataset
}

// FitRBF fits the harness's reference "RBF-RT" model: the spline-detrended
// regression-tree RBF network on the log response (see model.HybridRBFModel
// for why the hybrid replaces a pure kernel expansion).
func FitRBF(data *model.Dataset) (model.Model, error) {
	hy, err := model.FitHybridRBF(model.LogDataset(data),
		model.MARSOptions{}, model.RBFOptions{Kernel: model.Multiquadric})
	if err != nil {
		return nil, err
	}
	return model.LogModel{Inner: hy}, nil
}

// FitAllParallel fits the paper's three modeling techniques on one dataset
// and returns four models: "linear" (two-factor interactions, raw response),
// "mars" (log response), "rbf" (the hybrid RBF-RT network on the log
// response, whose trend is the "mars" fit itself, not a second one) and
// "mars-raw" (MARS on the raw response, for Table 4's effects in cycles).
// It runs on up to workers goroutines (0 = GOMAXPROCS). The fits only read
// the shared dataset, so the fitted models are identical to a serial run;
// errors are reported with the serial path's priority (linear, mars, rbf,
// mars-raw).
func FitAllParallel(data *model.Dataset, workers int) (map[string]model.Model, error) {
	return fitModels(data, workers, model.FitMARS)
}

// fitModels is the fit schedule behind FitAllParallel: the linear baseline ‖
// MARS on the log response, then the RBF-RT residual network on that fit as
// its trend ‖ MARS on the raw response. MARS therefore runs once per
// distinct dataset. Sharing the trend changes no bit: FitRBF's own trend
// differs from it only in MARSOptions.Workers, which FitMARS's result does
// not depend on. fitMARS is model.FitMARS outside tests.
func fitModels(data *model.Dataset, workers int,
	fitMARS func(*model.Dataset, model.MARSOptions) (*model.MARSModel, error)) (map[string]model.Model, error) {
	var (
		lin, mars, rbf, marsRaw model.Model
		errs                    [4]error // in reporting order
	)
	mo := model.MARSOptions{Workers: workers}
	par.Do(workers,
		func() { lin, errs[0] = model.FitLinear(data, doe.ExpandInteractions) },
		func() {
			logData := model.LogDataset(data)
			trend, err := fitMARS(logData, mo)
			if errs[1] = err; err != nil {
				return
			}
			mars = model.LogModel{Inner: trend}
			hy, err := model.FitHybridOnTrend(logData, trend, model.RBFOptions{Kernel: model.Multiquadric})
			if errs[2] = err; err != nil {
				return
			}
			rbf = model.LogModel{Inner: hy}
		},
		func() { marsRaw, errs[3] = fitMARS(data, mo) },
	)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return map[string]model.Model{"linear": lin, "mars": mars, "rbf": rbf, "mars-raw": marsRaw}, nil
}
