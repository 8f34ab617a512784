package sim_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/lang"
	"repro/internal/sim"
)

// fuzzConfigs is the fixed configuration list FuzzEnginesAgree indexes.
func fuzzConfigs() []sim.Config {
	wide := sim.Aggressive()
	wide.RUUSize = 16 // a wide core behind a window that is always full
	tiny := sim.DefaultConfig()
	tiny.DCacheKB, tiny.ICacheKB, tiny.BPredSize = 8, 8, 512
	return append(manyConfigs(), wide, tiny)
}

// sameFault reports whether two run errors are the same outcome: both nil,
// or both an *ErrFault with equal PC, message and Budget flag.
func sameFault(a, b error) bool {
	var fa, fb *sim.ErrFault
	if !errors.As(a, &fa) || !errors.As(b, &fb) {
		return a == nil && b == nil
	}
	return *fa == *fb
}

// FuzzEnginesAgree generates a MiniC program from the seed with
// lang.GenProgram, whose arrays reach 32 KB and so spill the tiny
// configuration's 8 KB data cache, compiles it at -O2 and -O3, and requires
// feed ≡ fused ≡ bb ≡ SimulateMany on a pair of configurations under the
// given instruction budget — Stats and ExitValue when the run halts, the
// fault (budget overruns included) when it does not. The committed corpus
// under testdata/fuzz runs as a plain test; explore with
// `go test ./internal/sim -run '^$' -fuzz FuzzEnginesAgree`.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(0), uint8(0), uint32(1<<31))
	f.Add(int64(4), uint8(3), uint32(4096))
	cfgList := fuzzConfigs()
	f.Fuzz(func(t *testing.T, seed int64, cfg uint8, budget uint32) {
		src := lang.GenProgram(rand.New(rand.NewSource(seed)))
		cfgs := []sim.Config{cfgList[int(cfg)%len(cfgList)], cfgList[(int(cfg)+1)%len(cfgList)]}
		maxInstrs := int64(budget)
		for _, opts := range []compiler.Options{compiler.O2(), compiler.O3()} {
			prog, _, err := compiler.CompileSource(src, opts)
			if err != nil {
				t.Fatalf("seed %d does not compile: %v", seed, err)
			}
			many, manyErr := sim.SimulateMany(prog, cfgs, maxInstrs)
			for k, c := range cfgs {
				ref, _, refErr := sim.SimulateEngine(prog, c, maxInstrs, sim.EngineFeed)
				for _, eng := range []string{sim.EngineFused, sim.EngineBB} {
					st, _, err := sim.SimulateEngine(prog, c, maxInstrs, eng)
					if st != ref || !sameFault(err, refErr) {
						t.Errorf("cfg %d %s:\n got  %+v (%v)\n feed %+v (%v)", k, eng, st, err, ref, refErr)
					}
				}
				if !sameFault(manyErr, refErr) {
					t.Errorf("cfg %d SimulateMany: error %v, feed %v", k, manyErr, refErr)
				} else if refErr == nil && many[k] != ref {
					t.Errorf("cfg %d SimulateMany:\n got  %+v\n feed %+v", k, many[k], ref)
				}
			}
		}
	})
}
