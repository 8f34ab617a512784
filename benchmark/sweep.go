package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// sweep is the paper's pipeline through exp.Harness: design, measure, fit,
// validate, search, confirm. sweep-cold runs it on a fresh on-disk store, so
// every point is compiled and simulated; sweep-warm runs it on a store that
// set-up populated, so no point is, and adds the analysis block.
type sweep struct {
	e        *env
	warm     bool
	programs []workloads.Workload

	// sweep-warm only: the populated store's files, and what the populating
	// (cold) run found, which the warm passes must reproduce.
	pristine string
	cold     *sweepOut

	lastDir string
	lastOut *sweepOut
}

// sweepOut is one run of the pipeline.
type sweepOut struct {
	wall, toModel, toSetting float64
	stages                   map[string]float64
	requests                 []measured // every measurement request, in order
	measureS                 float64    // time inside measurement calls
	modelErr                 float64    // mean held-out RBF-RT error, percent
	gaVsO3                   float64    // geomean of O3 cycles / GA cycles
	stats                    farm.Stats
	study                    *exp.Study
}

func newSweep(e *env, warm bool) (*sweep, error) {
	s := &sweep{e: e, warm: warm}
	for _, name := range e.size.sweepPrograms {
		w, err := workloads.Get(name, workloads.Train)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, w)
	}
	return s, nil
}

func (s *sweep) scale() exp.Scale {
	z := s.e.size
	return exp.Scale{Name: "bench", TrainPoints: z.train, TestPoints: z.test,
		DesignExpansion: doe.ExpandLinear, GAPopulation: z.gaPop, GAGenerations: z.gaGen}
}

// harness builds the pass's harness. sweep-cold takes the harness seed, and
// with it the designs and the GA's draws, from -seed. sweep-warm always takes
// the pinned seed's: what it times is model fitting, whose cost varies by
// about 15 % from one drawn dataset to the next (the number of MARS candidates
// follows which bases the data selects), and one dataset per run cannot
// resolve a change smaller than that. Its -seed still draws the points that
// are re-checked and the inputs of the layer replays.
func (s *sweep) harness(dir string) *exp.Harness {
	seed := s.e.subSeed("sweep", 0)
	if s.warm {
		pinned := env{seed: s.e.expected.Seed}
		seed = pinned.subSeed("sweep", 0)
	}
	h := exp.NewHarness(s.scale())
	h.Seed = seed
	h.Workers = s.e.workers
	h.CacheDir = dir
	return h
}

// setUp of sweep-cold builds each program at -O2 and -O3 and checks what it
// returns against the recorded reference. sweep-warm also populates its
// store, by running the cold pipeline once, and keeps a copy of the store's
// files as they are before the final checkpoint: a checkpoint holding the
// design points and a journal holding the confirmation points, so that every
// warm pass loads one and replays the other.
func (s *sweep) setUp() error {
	if err := checkExitValues(s.e.size.sweepPrograms, s.e.expected); err != nil {
		return err
	}
	if !s.warm {
		return nil
	}
	dir, err := os.MkdirTemp(s.e.scratch, "populate-")
	if err != nil {
		return err
	}
	h := s.harness(dir)
	out, err := s.pipeline(h, nil, nil, false)
	if err != nil {
		h.Close()
		return err
	}
	s.pristine = filepath.Join(s.e.scratch, "pristine")
	if err := copyStore(dir, s.pristine); err != nil {
		h.Close()
		return err
	}
	s.cold = out
	return h.Close()
}

func storePath(dir string) string { return filepath.Join(dir, "measurements-bench.json") }

// copyStore copies a store's checkpoint and journal to another directory.
func copyStore(from, to string) error {
	for _, suffix := range []string{"", ".journal"} {
		if err := copyFile(storePath(from)+suffix, storePath(to)+suffix); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweep) tearDown() {
	// Scratch files go with the run's scratch directory.
	s.pristine, s.cold = "", nil
}

// seam is the instrumented executor a traced cold pass installs through
// exp.Harness.Measure. It does what farm.Executor does, compile then the
// translated engine, with a span around each. Every design point has its
// own flags, so the farm would run these points ungrouped anyway and the seam
// changes no path.
type seam struct {
	tr        *tracer
	parent    atomic.Int64 // the stage span that submitted the batch
	submitted atomic.Int64 // when, in UnixNano

	// Totals of one pass, for the layer's busy time and work done.
	compileNS, simNS, compiles, codeInstrs, simInstrs atomic.Int64
}

// submit notes the stage span and the time of a batch submission; a nil seam
// (an untraced pass) notes nothing.
func (m *seam) submit(parent int64) {
	if m == nil {
		return
	}
	m.parent.Store(parent)
	m.submitted.Store(time.Now().UnixNano())
}

func (m *seam) measure(ctx context.Context, job farm.Job) (farm.Result, error) {
	entry := time.Now()
	if err := ctx.Err(); err != nil {
		return farm.Result{}, err
	}
	key := farm.Key(job.Workload, job.Point)
	point := m.tr.start(m.parent.Load(), key, "farm", "point")
	m.tr.record(point.id(), key, "farm", "queue_wait", time.Unix(0, m.submitted.Load()), entry)
	cfg := doe.ToConfig(job.Point)
	sp := m.tr.start(point.id(), key, "compiler", "compile")
	prog, _, err := compiler.Compile(job.Workload.Parse(), doe.ToOptions(job.Point, cfg.IssueWidth))
	if err != nil {
		sp.end()
		point.end()
		return farm.Result{}, &farm.CompileError{Workload: job.Workload.Key(), Err: err}
	}
	m.compileNS.Add(int64(sp.end("code_instrs", int64(len(prog.Instrs)))))
	m.compiles.Add(1)
	m.codeInstrs.Add(int64(len(prog.Instrs)))
	sp = m.tr.start(point.id(), key, "sim", "bb")
	st, _, err := sim.SimulateEngine(prog, cfg, maxInstrs, sim.EngineBB)
	m.simNS.Add(int64(sp.end("instrs", st.Instructions)))
	m.simInstrs.Add(st.Instructions)
	point.end()
	if err != nil {
		return farm.Result{}, &farm.SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
	}
	return farm.Result{Cycles: float64(st.Cycles), Energy: st.Energy, Instructions: st.Instructions}, nil
}

// stageClock times the pipeline's stages, with and without a tracer: the
// end-to-end numbers come from untraced passes and need the same boundaries.
type stageClock struct {
	tr     *tracer
	root   open
	stages map[string]float64
}

func (c *stageClock) run(name string, f func(parent int64) error) error {
	sp := c.tr.start(c.root.id(), "", "exp", name)
	t0 := time.Now()
	err := f(sp.id())
	c.stages[name] += time.Since(t0).Seconds()
	sp.end()
	return err
}

// pipeline runs the study on h. sm is non-nil when the harness measures
// through the seam. analysis adds the -exp all block: Table 3, Fig 5's
// refits, Table 4's effects and a cross-validation of MARS.
func (s *sweep) pipeline(h *exp.Harness, tr *tracer, sm *seam, analysis bool) (*sweepOut, error) {
	out := &sweepOut{stages: map[string]float64{}}
	clock := &stageClock{tr: tr, root: tr.start(0, "", "exp", "pass"), stages: out.stages}
	start := time.Now()
	record := func(w workloads.Workload, pts []doe.Point) {
		for _, p := range pts {
			out.requests = append(out.requests, measured{job: farm.Job{Workload: w, Point: p}})
		}
	}

	var trainPts, testPts []doe.Point
	if err := clock.run("design", func(parent int64) error {
		sp := tr.start(parent, "", "doe", "doptimal")
		trainPts = h.TrainDesign()
		sp.end("points", int64(len(trainPts)))
		sp = tr.start(parent, "", "doe", "lhs")
		testPts = h.TestDesign()
		sp.end("points", int64(len(testPts)))
		return nil
	}); err != nil {
		return nil, err
	}

	st := &exp.Study{Harness: h, Class: workloads.Train, Models: map[string]map[string]model.Model{}}
	if err := clock.run("measure", func(parent int64) error {
		t0 := time.Now()
		for _, w := range s.programs {
			sm.submit(parent)
			train, err := h.BuildDataset(w, trainPts)
			if err != nil {
				return err
			}
			sm.submit(parent)
			test, err := h.BuildDataset(w, testPts)
			if err != nil {
				return err
			}
			st.Programs = append(st.Programs, &exp.ProgramData{
				Workload: w, TrainPoints: trainPts, TestPoints: testPts, Train: train, Test: test})
		}
		out.measureS += time.Since(t0).Seconds()
		for _, w := range s.programs {
			record(w, trainPts)
			record(w, testPts)
		}
		return h.SaveCache()
	}); err != nil {
		return nil, err
	}

	if err := clock.run("fit", func(parent int64) error {
		for _, pd := range st.Programs {
			sp := tr.start(parent, pd.Workload.Key(), "model", "fit_all")
			ms, err := exp.FitAllParallel(pd.Train, h.Workers)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", pd.Workload.Key(), err)
			}
			st.Models[pd.Workload.Key()] = ms
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := clock.run("validate", func(int64) error {
		var errs []float64
		for _, pd := range st.Programs {
			ms := st.Models[pd.Workload.Key()]
			model.TestError(ms["linear"], pd.Test)
			model.TestError(ms["mars"], pd.Test)
			errs = append(errs, model.TestError(ms["rbf"], pd.Test))
		}
		out.modelErr = mean(errs)
		return nil
	}); err != nil {
		return nil, err
	}
	out.toModel = time.Since(start).Seconds()

	// One search per (program, configuration): a sub-study of one program
	// searched on one configuration draws the same generator as the whole
	// study would, and gives each GA its own span.
	var results []exp.SearchResult
	if err := clock.run("search", func(parent int64) error {
		for _, pd := range st.Programs {
			one := &exp.Study{Harness: h, Class: st.Class, Programs: []*exp.ProgramData{pd}, Models: st.Models}
			for _, nc := range exp.NamedConfigs() {
				sp := tr.start(parent, pd.Workload.Key(), "search", "ga")
				rs, err := one.SearchSettings([]exp.NamedConfig{nc})
				sp.end()
				if err != nil {
					return err
				}
				results = append(results, rs...)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := clock.run("confirm", func(parent int64) error {
		sm.submit(parent)
		t0 := time.Now()
		_, rows, err := st.Fig7(results, nil)
		out.measureS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, r.ActualGA/r.ActualO3)
		}
		out.gaVsO3 = geomean(ratios)
		// The confirmation requests, in the order Fig7 submits them.
		cfgs := map[string]sim.Config{}
		for _, nc := range exp.NamedConfigs() {
			cfgs[nc.Name] = nc.Config
		}
		byKey := map[string]workloads.Workload{}
		for _, w := range s.programs {
			byKey[w.Key()] = w
		}
		for _, r := range results {
			march := doe.FromConfig(cfgs[r.Config])
			record(byKey[r.Program], []doe.Point{
				doe.JoinPoint(doe.FromOptions(compiler.O2()), march),
				doe.JoinPoint(doe.FromOptions(compiler.O3()), march),
				r.Point,
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out.toSetting = time.Since(start).Seconds()

	if analysis {
		if err := clock.run("analysis", func(parent int64) error {
			st.Table3()
			st.Fig5()
			sp := tr.start(parent, "", "model", "effects")
			st.Table4(10)
			sp.end()
			for _, pd := range st.Programs {
				sp := tr.start(parent, pd.Workload.Key(), "model", "crossval")
				_, err := model.CrossValidateParallel(pd.Train, s.e.size.cvFolds, h.Seed, h.Workers,
					func(d *model.Dataset) (model.Model, error) {
						m, err := model.FitMARS(model.LogDataset(d), model.MARSOptions{Workers: 1})
						if err != nil {
							return nil, err
						}
						return model.LogModel{Inner: m}, nil
					})
				sp.end()
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out.wall = time.Since(start).Seconds()
	clock.root.end()
	out.stats = h.FarmStats()
	out.study = st
	// Outside the timed part: read both responses of every request from the
	// store, which is where the farm put them.
	store := h.Farm().Store()
	for i := range out.requests {
		m := &out.requests[i]
		key := farm.Key(m.job.Workload, m.job.Point)
		var ok bool
		if m.cycles, m.energy, ok = store.Get2(key, farm.EnergyKey(key)); !ok {
			return nil, fmt.Errorf("%s: a measured point is not in the store", m.job.Workload.Key())
		}
	}
	return out, nil
}

func (s *sweep) pass(i int, tr *tracer) (*passOut, error) {
	dir, err := os.MkdirTemp(s.e.scratch, "pass-")
	if err != nil {
		return nil, err
	}
	var sm *seam
	if s.warm {
		if err := copyStore(s.pristine, dir); err != nil {
			return nil, err
		}
	}
	h := s.harness(dir)
	if tr != nil && !s.warm {
		sm = &seam{tr: tr}
		h.Measure = sm.measure
	}
	out, err := s.pipeline(h, tr, sm, s.warm)
	if err != nil {
		h.Close()
		return nil, err
	}
	closeStart := time.Now()
	if err := h.Close(); err != nil {
		return nil, err
	}
	// Closing the harness writes the final checkpoint; a user waits for it.
	closeS := time.Since(closeStart).Seconds()
	out.wall += closeS
	out.toSetting += closeS
	out.stages["confirm"] += closeS
	s.lastDir, s.lastOut = dir, out

	n := float64(len(out.requests))
	po := &passOut{
		e2e: map[string]float64{
			"wall_s":            out.wall,
			"time_to_model_s":   out.toModel,
			"time_to_setting_s": out.toSetting,
			"points_per_s":      n / out.measureS,
			"req_per_s":         n / out.wall,
		},
		layer:     map[string]float64{},
		attempted: int64(len(out.requests)),
		failed:    out.stats.Failures,
		digest:    digestOf(out.requests),
	}
	for name, v := range out.stages {
		po.layer["exp.stage_"+name+"_s"] = v
	}
	po.layer["exp.model_err_pct"] = out.modelErr
	po.layer["exp.ga_speedup_vs_o3"] = out.gaVsO3
	po.layer["exp.sim_instrs"] = float64(out.stats.InstrsSimulated)
	farmLayer(po.layer, out.stats)
	if sm != nil {
		compileS := time.Duration(sm.compileNS.Load()).Seconds()
		simS := time.Duration(sm.simNS.Load()).Seconds()
		busyS, _ := busy(out.stats)
		po.layer["compiler.busy_s"] = compileS
		po.layer["compiler.compiles"] = float64(sm.compiles.Load())
		po.layer["compiler.code_instrs"] = float64(sm.codeInstrs.Load())
		po.layer["sim.bb_busy_s"] = simS
		po.layer["sim.bb_minstr_per_s"] = float64(sm.simInstrs.Load()) / 1e6 / simS
		po.layer["farm.self_s"] = busyS - compileS - simS
	}
	return po, nil
}

// farmLayer reports a farm's own counters.
func farmLayer(layer map[string]float64, st farm.Stats) {
	layer["farm.utilization"] = st.Utilization()
	layer["farm.cache_hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses+st.Coalesced)
	layer["farm.coalesced"] = float64(st.Coalesced)
	layer["farm.binary_groups"] = float64(st.BinaryGroups)
	layer["farm.trace_shared_sims"] = float64(st.TraceSharedSims)
	layer["farm.compile_cache_hit_ratio"] = ratio(st.CompileCacheHits, st.CompileCacheHits+st.CompileCacheMisses)
	layer["farm.retries"] = float64(st.Retries)
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func busy(st farm.Stats) (total, max float64) {
	for _, w := range st.PerWorker {
		b := w.Busy.Seconds()
		total += b
		if b > max {
			max = b
		}
	}
	return total, max
}

func (s *sweep) verify(rs *runState) []string {
	var fails []string
	out := s.lastOut
	if s.warm {
		if out.stats.SimsExecuted != 0 || out.stats.InstrsSimulated != 0 {
			fails = append(fails, fmt.Sprintf("warm pass simulated %d points", out.stats.SimsExecuted))
		}
		if out.stats.CacheMisses != 0 {
			fails = append(fails, fmt.Sprintf("warm pass missed the store %d times", out.stats.CacheMisses))
		}
		if math.Float64bits(out.modelErr) != math.Float64bits(s.cold.modelErr) ||
			math.Float64bits(out.gaVsO3) != math.Float64bits(s.cold.gaVsO3) {
			fails = append(fails, fmt.Sprintf("warm pass found error %v%% and speed-up %v; the cold run found %v%% and %v",
				out.modelErr, out.gaVsO3, s.cold.modelErr, s.cold.gaVsO3))
		}
		if digestOf(out.requests) != digestOf(s.cold.requests) {
			fails = append(fails, "warm pass read other values than the cold run stored")
		}
	} else if want := int64(len(out.requests)); out.stats.SimsExecuted > want || out.stats.SimsExecuted == 0 {
		fails = append(fails, fmt.Sprintf("cold pass simulated %d points for %d requests", out.stats.SimsExecuted, want))
	}
	if out.gaVsO3 <= 0 || out.modelErr <= 0 || math.IsNaN(out.modelErr) {
		fails = append(fails, fmt.Sprintf("model error %v%% or GA speed-up %v is not a positive number", out.modelErr, out.gaVsO3))
	}
	var stageSum float64
	for _, v := range out.stages {
		stageSum += v
	}
	if math.Abs(stageSum-out.wall) > 0.02*out.wall {
		fails = append(fails, fmt.Sprintf("stages sum to %.4fs, the pass took %.4fs", stageSum, out.wall))
	}

	sl, f := replayReference(pick(out.requests, s.e.size.referencePoints, s.e.rng("reference", 0)), s.e.expected, rs.tr)
	fails = append(fails, f...)
	if rs.tr != nil {
		sl.report(rs.layer)
		s.layers(rs)
	}
	return fails
}
