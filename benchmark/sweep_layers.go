package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/sim"
)

// layers fills the per-layer metrics of a traced sweep: the spans of the
// traced passes give what was measured in place, and direct calls into
// doe, model, search and farm.Store on the last pass's own data give the
// rest.
func (s *sweep) layers(rs *runState) {
	spans := rs.tr.snapshot()
	ms := func(name string, secs []float64) {
		if len(secs) > 0 {
			rs.layer[name] = 1000 * median(secs)
		}
	}
	ms("compiler.compile_ms_p50", named(spans, "compiler", "compile"))
	waits := named(spans, "farm", "queue_wait")
	ms("farm.queue_wait_ms_p50", waits)
	if len(waits) > 0 {
		rs.layer["farm.queue_wait_ms_p99"] = 1000 * percentile(waits, 99)
	}
	ms("doe.doptimal_ms", named(spans, "doe", "doptimal"))
	ms("doe.lhs_ms", named(spans, "doe", "lhs"))
	ms("model.fit_all_ms", named(spans, "model", "fit_all"))
	ms("search.ga_ms_p50", named(spans, "search", "ga"))

	pd := s.lastOut.study.Programs[0]
	models := s.lastOut.study.Models[pd.Workload.Key()]
	h := s.lastOut.study.Harness
	timed := func(name string, f func()) {
		sp := rs.tr.start(0, pd.Workload.Key(), "model", name)
		t0 := time.Now()
		f()
		rs.layer["model."+name+"_ms"] = 1000 * time.Since(t0).Seconds()
		sp.end()
	}
	timed("fit_linear", func() { model.FitLinear(pd.Train, doe.ExpandInteractions) })
	timed("fit_mars", func() { model.FitMARS(model.LogDataset(pd.Train), model.MARSOptions{Workers: h.Workers}) })
	timed("fit_rbf", func() { exp.FitRBF(pd.Train) })
	timed("crossval", func() {
		model.CrossValidateParallel(pd.Train, s.e.size.cvFolds, h.Seed, h.Workers,
			func(d *model.Dataset) (model.Model, error) {
				return model.FitMARS(model.LogDataset(d), model.MARSOptions{Workers: 1})
			})
	})
	timed("effects", func() { model.TopEffects(models["mars-raw"], h.Space(), pd.Train.X, 10) })
	var blob []byte
	timed("encode", func() { blob, _ = model.Encode(models["rbf"]) })
	timed("decode", func() { model.Decode(blob) })

	bulk := h.Space().LatinHypercube(s.e.size.bulkPredict, s.e.rng("bulk-predict", 0))
	coded := make([][]float64, len(bulk))
	for i, p := range bulk {
		coded[i] = h.Space().Code(p)
	}
	t0 := time.Now()
	model.PredictAll(models["rbf"], coded)
	rs.layer["model.predict_ns_per_point"] = float64(time.Since(t0).Nanoseconds()) / float64(len(coded))

	t0 = time.Now()
	res, err := search.FindCompilerSettingsCtx(context.Background(), h.Space(), models["rbf"],
		doe.FromConfig(sim.DefaultConfig()),
		search.GAOptions{Population: s.e.size.gaPop, Generations: s.e.size.gaGen, Workers: h.Workers},
		s.e.rng("ga-replay", 0))
	if err == nil {
		rs.layer["search.evals_per_s"] = float64(res.Evals) / time.Since(t0).Seconds()
	}

	s.storeLayer(rs)
}

// storeLayer times farm.Store on the last pass's own files: Open (checkpoint
// load and journal replay) and Get2 on a copy of them, then Put and
// Checkpoint on a fresh journaled store of the same size.
func (s *sweep) storeLayer(rs *runState) {
	dir, err := os.MkdirTemp(s.e.scratch, "store-")
	if err != nil {
		return
	}
	src := storePath(s.lastDir)
	if s.warm {
		src = storePath(s.pristine)
	}
	path := filepath.Join(dir, "copy.json")
	if copyFile(src, path) != nil {
		return
	}
	_ = copyFile(src+".journal", path+".journal") // absent after a final checkpoint
	sp := rs.tr.start(0, "", "farm", "store_open")
	t0 := time.Now()
	st, err := farm.Open(path, nil)
	rs.layer["farm.store_open_ms"] = 1000 * time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return
	}
	defer st.Close()

	reqs := s.lastOut.requests
	keys := make([]string, len(reqs))
	for i, m := range reqs {
		keys[i] = farm.Key(m.job.Workload, m.job.Point)
	}
	n := s.e.size.storeOps
	t0 = time.Now()
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		st.Get2(k, farm.EnergyKey(k))
	}
	rs.layer["farm.store_get_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	fresh, err := farm.Open(filepath.Join(dir, "fresh.json"), nil)
	if err != nil {
		return
	}
	defer fresh.Close()
	var puts []float64
	for i := 0; i < n; i++ {
		m := reqs[i%len(reqs)]
		k := keys[i%len(keys)] + "#" + string(rune('a'+i/len(keys)%26))
		t0 := time.Now()
		if fresh.Put(farm.Entry(k, m.cycles), farm.Entry(farm.EnergyKey(k), m.energy)) != nil {
			return
		}
		puts = append(puts, time.Since(t0).Seconds())
	}
	rs.layer["farm.store_put_us_p50"] = 1e6 * median(puts)
	sp = rs.tr.start(0, "", "farm", "store_checkpoint")
	t0 = time.Now()
	if fresh.Checkpoint() == nil {
		rs.layer["farm.store_checkpoint_ms"] = 1000 * time.Since(t0).Seconds()
	}
	sp.end()
}
