package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// maxInstrs is the per-simulation budget, the farm's own default.
const maxInstrs = 500_000_000

// measured is one answered measurement request.
type measured struct {
	job    farm.Job
	cycles float64
	energy float64
}

// digestOf is the fnv-1a hash of every measured (cycles, energy) pair, in
// request order. Both values are hashed by their IEEE bits, so two runs agree
// only if they agree bit for bit.
func digestOf(ms []measured) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(m.cycles))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.energy))
		h.Write(b[:])
	}
	return h.Sum64()
}

// expectedFile is expected.json: the pinned digests of seed 1 for each load
// size, and each program's reference exit value.
type expectedFile struct {
	Seed       int64                        `json:"seed"`
	Digests    map[string]map[string]string `json:"digests"`
	ExitValues map[string]int64             `json:"exit_values"`
	path       string
}

func loadExpected(specDir string) (*expectedFile, error) {
	path := filepath.Join(specDir, "benchmark", "expected.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	x := &expectedFile{path: path}
	if err := json.Unmarshal(data, x); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return x, nil
}

// digest returns the pinned digest of a workload, or "" when the run's seed
// is not the pinned one or the pins are being rewritten.
func (x *expectedFile) digest(workload string, e *env) string {
	if e.updating || e.seed != x.Seed {
		return ""
	}
	return x.Digests[e.size.name][workload]
}

func (x *expectedFile) save() error {
	data, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(x.path, append(data, '\n'), 0o644)
}

// pick draws up to n of the measurements without replacement.
func pick(ms []measured, n int, rng *rand.Rand) []measured {
	if n > len(ms) {
		n = len(ms)
	}
	out := make([]measured, 0, n)
	for _, i := range rng.Perm(len(ms))[:n] {
		out = append(out, ms[i])
	}
	return out
}

// simLayer collects what the reference replay learns about the compiler and
// the simulator tiers.
type simLayer struct {
	feedS, fusedS float64
	instrs        int64
	stats         []sim.Stats
}

// replayReference re-measures the picked points outside the farm: each is
// compiled again and simulated by the feed engine, the readable reference the
// other tiers are held equal to, and must reproduce the stored cycles and
// energy bit for bit and return the program's recorded exit value. In a
// traced run the fused and translated tiers run on the same binaries, for the
// side-by-side host speeds.
func replayReference(points []measured, x *expectedFile, tr *tracer) (*simLayer, []string) {
	var fails []string
	sl := &simLayer{}
	for _, m := range points {
		cfg := doe.ToConfig(m.job.Point)
		prog, _, err := compiler.Compile(m.job.Workload.Parse(), doe.ToOptions(m.job.Point, cfg.IssueWidth))
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: reference compile: %v", m.job.Workload.Key(), err))
			continue
		}
		engines := []string{sim.EngineFeed}
		if tr != nil {
			engines = sim.Engines()
		}
		for _, eng := range engines {
			sp := tr.start(0, farm.Key(m.job.Workload, m.job.Point), "sim", eng)
			t0 := time.Now()
			st, _, err := sim.SimulateEngine(prog, cfg, maxInstrs, eng)
			d := time.Since(t0).Seconds()
			sp.end("instrs", st.Instructions)
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s: %s engine: %v", m.job.Workload.Key(), eng, err))
				continue
			}
			energyOK := math.IsNaN(m.energy) || math.Float64bits(st.Energy) == math.Float64bits(m.energy)
			if float64(st.Cycles) != m.cycles || !energyOK {
				fails = append(fails, fmt.Sprintf("%s: %s engine gives %d cycles, %v energy; measured %v, %v",
					m.job.Workload.Key(), eng, st.Cycles, st.Energy, m.cycles, m.energy))
			}
			if want := x.ExitValues[m.job.Workload.Name]; st.ExitValue != want {
				fails = append(fails, fmt.Sprintf("%s returns %d at a design point, expected.json records %d",
					m.job.Workload.Key(), st.ExitValue, want))
			}
			switch eng {
			case sim.EngineFeed:
				sl.feedS += d
				sl.instrs += st.Instructions
				sl.stats = append(sl.stats, st)
			case sim.EngineFused:
				sl.fusedS += d
			}
		}
	}
	return sl, fails
}

// report writes the replay's numbers into the per-layer map.
func (sl *simLayer) report(layer map[string]float64) {
	minstr := func(s float64) float64 {
		if s <= 0 {
			return 0
		}
		return float64(sl.instrs) / 1e6 / s
	}
	layer["sim.feed_minstr_per_s"] = minstr(sl.feedS)
	layer["sim.fused_minstr_per_s"] = minstr(sl.fusedS)
	var ipc, dl1, l2, mis []float64
	for _, st := range sl.stats {
		ipc = append(ipc, st.IPC())
		dl1 = append(dl1, pct(st.DL1Misses, st.DL1Accesses))
		l2 = append(l2, pct(st.L2Misses, st.L2Accesses))
		mis = append(mis, pct(st.Mispredicts, st.Branches))
	}
	layer["sim.ipc_mean"] = mean(ipc)
	layer["sim.dl1_miss_pct"] = mean(dl1)
	layer["sim.l2_miss_pct"] = mean(l2)
	layer["sim.mispredict_pct"] = mean(mis)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// checkExitValues compiles every program at -O2 and -O3, runs it on the
// default configuration and compares main's return value with the recorded
// reference: a miscompile that still terminates shows here.
func checkExitValues(names []string, x *expectedFile) error {
	for _, name := range names {
		w, err := workloads.Get(name, workloads.Train)
		if err != nil {
			return err
		}
		for _, opt := range []compiler.Options{compiler.O2(), compiler.O3()} {
			prog, _, err := compiler.Compile(w.Parse(), opt)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			st, _, err := sim.SimulateEngine(prog, sim.DefaultConfig(), maxInstrs, sim.EngineBB)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if want, ok := x.ExitValues[name]; !ok || st.ExitValue != want {
				return fmt.Errorf("%s returns %d, expected.json records %d", name, st.ExitValue, want)
			}
		}
	}
	return nil
}
