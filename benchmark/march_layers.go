package main

import (
	"math"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/smarts"
)

// layers fills the per-layer metrics of a traced march sweep. A custom
// Measure would switch the farm's grouping off, so the farm is left alone
// and the layer's public function is replayed on the same inputs: the first
// groups of the last pass go through sim.SimulateMany, one after another.
func (m *march) layers(rs *runState) {
	type group struct {
		job  farm.Job
		cfgs []sim.Config
	}
	var order []string
	groups := map[string]*group{}
	for _, job := range m.lastJobs {
		bk := farm.BinaryKey(job.Workload, job.Point)
		g, ok := groups[bk]
		if !ok {
			g = &group{job: job}
			groups[bk] = g
			order = append(order, bk)
		}
		g.cfgs = append(g.cfgs, doe.ToConfig(job.Point))
	}
	rs.layer["farm.binary_groups"] = float64(len(order))
	if len(order) > m.e.size.manyGroups {
		order = order[:m.e.size.manyGroups]
	}
	var compileS []float64
	var manyS float64
	var instrs, configs, codeInstrs int64
	for _, bk := range order {
		g := groups[bk]
		cfg := doe.ToConfig(g.job.Point)
		sp := rs.tr.start(0, bk, "compiler", "compile")
		t0 := time.Now()
		prog, _, err := compiler.Compile(g.job.Workload.Parse(), doe.ToOptions(g.job.Point, cfg.IssueWidth))
		compileS = append(compileS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			continue
		}
		codeInstrs += int64(len(prog.Instrs))
		sp = rs.tr.start(0, bk, "sim", "many")
		t0 = time.Now()
		stats, err := sim.SimulateMany(prog, g.cfgs, maxInstrs)
		manyS += time.Since(t0).Seconds()
		if err != nil {
			sp.end()
			continue
		}
		var groupInstrs int64
		for _, st := range stats {
			groupInstrs += st.Instructions
		}
		instrs += groupInstrs
		configs += int64(len(g.cfgs))
		sp.end("instrs", groupInstrs, "configs", int64(len(g.cfgs)))
	}
	rs.layer["compiler.compile_ms_p50"] = 1000 * median(compileS)
	rs.layer["compiler.busy_s"] = sum(compileS)
	rs.layer["compiler.compiles"] = float64(len(compileS))
	rs.layer["compiler.code_instrs"] = float64(codeInstrs)
	rs.layer["sim.many_busy_s"] = manyS
	if manyS > 0 {
		rs.layer["sim.many_minstr_per_s"] = float64(instrs) / 1e6 / manyS
	}
	if len(order) > 0 {
		rs.layer["sim.many_configs_per_group"] = float64(configs) / float64(len(order))
	}
	if !m.dist {
		m.smartsLayer(rs)
	}
}

// smartsLayer reports the sampled mode, which is not a workload yet: on one
// -O2 binary per program it estimates several configurations that share a
// warm geometry, by a full sampled run and through the warm-checkpoint store,
// and compares each estimate with the detailed cycle count.
func (m *march) smartsLayer(rs *runState) {
	sampler := smarts.DefaultSampler()
	rng := m.e.rng("smarts", 0)
	var runS, buildS, replayS, relErr []float64
	var hits, lookups, covered, estimates int
	for _, name := range m.e.size.smartsPrograms {
		var job farm.Job
		for _, j := range m.lastJobs {
			if j.Workload.Name == name {
				job = j
				break
			}
		}
		if job.Point == nil {
			continue
		}
		// Keep the first job's geometry and issue width (the binary depends
		// on the width); vary what a warm checkpoint does not depend on.
		base := doe.ToConfig(job.Point)
		prog, _, err := compiler.Compile(job.Workload.Parse(), doe.ToOptions(job.Point, base.IssueWidth))
		if err != nil {
			continue
		}
		store := smarts.NewStore(0)
		for c := 0; c < m.e.size.smartsConfigs; c++ {
			cfg := base
			cfg.RUUSize = []int{16, 32, 64, 128}[rng.Intn(4)]
			cfg.DCacheLat = 1 + rng.Intn(3)
			cfg.L2Lat = 6 + rng.Intn(11)
			cfg.MemLat = 50 + rng.Intn(101)
			truth, err := sim.Simulate(prog, cfg, maxInstrs)
			if err != nil {
				continue
			}
			sp := rs.tr.start(0, name, "smarts", "run")
			t0 := time.Now()
			res, err := smarts.Run(prog, cfg, sampler, maxInstrs)
			runS = append(runS, time.Since(t0).Seconds())
			sp.end()
			if err != nil {
				continue
			}
			sp = rs.tr.start(0, name, "smarts", "checkpointed")
			t0 = time.Now()
			_, hit, err := smarts.RunCheckpointed(store, prog, cfg, sampler, maxInstrs)
			d := time.Since(t0).Seconds()
			sp.end()
			if err != nil {
				continue
			}
			lookups++
			if hit {
				hits++
				replayS = append(replayS, d)
			} else {
				buildS = append(buildS, d)
			}
			e := math.Abs(res.EstimatedCycles-float64(truth.Cycles)) / float64(truth.Cycles)
			relErr = append(relErr, 100*e)
			estimates++
			if math.Abs(res.EstimatedCycles-float64(truth.Cycles)) <= res.RelCI997*res.EstimatedCycles {
				covered++
			}
		}
	}
	rs.layer["smarts.run_ms_p50"] = 1000 * median(runS)
	rs.layer["smarts.ckpt_build_ms_p50"] = 1000 * median(buildS)
	rs.layer["smarts.ckpt_replay_ms_p50"] = 1000 * median(replayS)
	rs.layer["smarts.est_relerr_pct"] = mean(relErr)
	if lookups > 0 {
		rs.layer["smarts.ckpt_hit_ratio"] = float64(hits) / float64(lookups)
	}
	if estimates > 0 {
		rs.layer["smarts.ci_cover_ratio"] = float64(covered) / float64(estimates)
	}
}
