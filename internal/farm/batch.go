package farm

import (
	"context"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BinaryKey returns the identity of the compiled binary a job needs: the
// workload (name and source text) plus everything the compiler sees — the
// 14-flag compiler subvector and the target issue width, which
// doe.ToOptions reads out of the microarchitecture block for scheduling.
// Two jobs with equal binary keys compile to the same *isa.Program, and
// therefore produce the same committed-instruction stream; only the timing
// differs. The version tag is shared with Key so semantic changes
// invalidate both identities together. The hashed text is Key's prefix
// `v3|<workload>|<source>|`, then `w<issue width>|`, then each compiler
// value and a comma.
func BinaryKey(w workloads.Workload, p doe.Point) string {
	h := sourceHash(w).str("w").int(int64(doe.ToConfig(p).IssueWidth)).str("|")
	return keyString(w, "|bin", h.ints(p[:doe.NumCompilerVars]))
}

// compileFn builds the binary for a job; the Farm's instance defaults to
// the real compiler and is swappable in tests to inject compile failures.
type compileFn func(w workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error)

func defaultCompile(w workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
	prog, _, err := compiler.Compile(w.Parse(), doe.ToOptions(p, cfg.IssueWidth))
	return prog, err
}

// compileCached resolves a job's binary through the farm's binary cache,
// wrapping failures as CompileError. A failed compile is not cached, so the
// next group for the binary compiles afresh (run keeps the failure for the
// rest of its own group).
func (f *Farm) compileCached(w workloads.Workload, p doe.Point) (*isa.Program, sim.Config, error) {
	cfg := doe.ToConfig(p)
	prog, hit, err := f.bins.Get(context.Background(), BinaryKey(w, p), func() (*isa.Program, error) {
		prog, cerr := f.compile(w, p, cfg)
		if cerr != nil {
			return nil, &CompileError{Workload: w.Key(), Err: cerr}
		}
		return prog, nil
	})
	f.Count(func() {
		if hit {
			f.pool.CompileCacheHits++
		} else {
			f.pool.CompileCacheMisses++
		}
	})
	return prog, cfg, err
}

// simulate is the farm's default MeasureFunc: the job's binary through the
// binary cache, then one sim.Simulate. Points of a group run it on slots of
// their own, so the first compiles and the others join that build or hit
// the finished binary. Errors are typed as Executor types them (CompileError,
// SimError with its Budget flag).
func (f *Farm) simulate(ctx context.Context, job Job) (Result, error) {
	prog, cfg, err := f.compileCached(job.Workload, job.Point)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	st, err := sim.Simulate(prog, cfg, f.maxInstrs)
	if err != nil {
		return Result{}, &SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
	}
	return Result{Cycles: float64(st.Cycles), Energy: st.Energy, Instructions: st.Instructions}, nil
}
