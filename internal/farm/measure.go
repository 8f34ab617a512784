package farm

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Job identifies one measurement: a workload compiled at the compiler
// settings of a joint-space design point and simulated on the
// microarchitecture of the same point.
type Job struct {
	Workload workloads.Workload
	Point    doe.Point
}

// Result carries every response one execution of a job produces. Cycles and
// energy come from the same simulation, so a single-flight execution
// satisfies requests for either response.
type Result struct {
	Cycles       float64
	Energy       float64
	Instructions int64
}

// Response selects which measurement of a Result a caller wants.
type Response int

const (
	// Cycles is the execution time response (the paper's primary metric).
	Cycles Response = iota
	// Energy is the activity-based energy estimate.
	Energy
)

// Value extracts the requested response from a result.
func (r Response) Value(res Result) float64 {
	if r == Energy {
		return res.Energy
	}
	return res.Cycles
}

// MeasureFunc executes one job. Implementations must be deterministic in the
// job (the farm's bit-for-bit reproducibility guarantee rests on it) and
// should respect ctx between expensive stages.
type MeasureFunc func(ctx context.Context, job Job) (Result, error)

// Key returns the store key for a job: the identity the single-flight map
// and the result store share. The format matches the pre-farm harness cache
// (`<workload>|<fnv64a of version-tag, workload source and point>`), so
// existing cache files stay valid. The source text participates so workload
// edits — and the version tag so compiler/simulator semantic changes —
// invalidate stale measurements.
func Key(w workloads.Workload, p doe.Point) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v3|%s|%s|", w.Key(), w.Source)
	for _, v := range p {
		fmt.Fprintf(h, "%d,", v)
	}
	return fmt.Sprintf("%s|%x", w.Key(), h.Sum64())
}

// EnergyKey is the store key of the energy response for a job key.
func EnergyKey(jobKey string) string { return jobKey + "|energy" }

// Executor returns the uncached serial MeasureFunc. It is not what a nil
// Options.Measure runs (that is the farm's own executor, with the binary
// cache and grouping); it is the plain form tests and benchmarks compare
// that executor against: compile the workload at the point's compiler
// settings, then simulate on the point's microarchitecture under the given
// instruction budget (0 means 500M, guarding miscompiled infinite loops).
// Errors are wrapped for Classify: compile failures are permanent, budget
// overruns report as ClassBudget.
func Executor(maxInstrs int64) MeasureFunc {
	if maxInstrs == 0 {
		maxInstrs = 500_000_000
	}
	return func(ctx context.Context, job Job) (Result, error) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		cfg := doe.ToConfig(job.Point)
		opts := doe.ToOptions(job.Point, cfg.IssueWidth)
		prog, _, err := compiler.Compile(job.Workload.Parse(), opts)
		if err != nil {
			return Result{}, &CompileError{Workload: job.Workload.Key(), Err: err}
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		st, _, err := sim.SimulateEngine(prog, cfg, maxInstrs, sim.EngineBB)
		if err != nil {
			// Classify on the typed Budget flag, never on the message text:
			// a rewording of the fault message must not silently turn a
			// budget overrun into a permanent failure.
			return Result{}, &SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
		}
		return Result{
			Cycles:       float64(st.Cycles),
			Energy:       st.Energy,
			Instructions: st.Instructions,
		}, nil
	}
}
