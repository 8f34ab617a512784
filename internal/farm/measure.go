package farm

import (
	"context"
	"strconv"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/par"
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
// invalidate stale measurements. The hashed text is
// `v3|<workload>|<source>|` then each point value and a comma, as "%d,"
// prints it; the state after the source comes from sourceHash.
func Key(w workloads.Workload, p doe.Point) string {
	return keyString(w, "|", sourceHash(w).ints(p))
}

// fnv64a is the running state of a 64-bit FNV-1a hash, the hash of Key and
// BinaryKey; it is what hash/fnv's New64a computes, held as a value so a
// prefix's state can be kept and resumed.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime
	}
	return h
}

// int hashes v in decimal, as "%d" prints it.
func (h fnv64a) int(v int64) fnv64a {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h = (h ^ fnv64a(c)) * fnvPrime
	}
	return h
}

// ints hashes each value in decimal followed by a comma.
func (h fnv64a) ints(vs []int64) fnv64a {
	for _, v := range vs {
		h = (h.int(v) ^ ',') * fnvPrime
	}
	return h
}

// sourceID is a workload's identity in the prefix memo: its key's parts and
// its source text.
type sourceID struct{ name, input, source string }

// sourceCacheSize bounds the prefix memo, in sources. As with the workloads
// parse cache, the seven programs at two input classes are 14; the bound is
// for empirico-worker, which keys every source a coordinator leases to it.
const sourceCacheSize = 256

var sourceCache = par.NewCache[sourceID, fnv64a](sourceCacheSize)

// sourceHash returns the hash state after `v3|<workload>|<source>|`, the
// prefix Key and BinaryKey share. A source is kilobytes long and a point is
// tens of bytes, so the state is memoized per workload and source.
func sourceHash(w workloads.Workload) fnv64a {
	h, _, _ := sourceCache.Get(context.Background(), sourceID{w.Name, w.Input, w.Source}, func() (fnv64a, error) {
		return fnvOffset.str("v3|").str(w.Key()).str("|").str(w.Source).str("|"), nil
	})
	return h
}

// keyString formats `<workload><sep><hash in hex>` with one allocation.
func keyString(w workloads.Workload, sep string, h fnv64a) string {
	var buf [96]byte
	b := append(buf[:0], w.Name...)
	b = append(b, '-')
	b = append(b, w.Input...)
	b = append(b, sep...)
	return string(strconv.AppendUint(b, uint64(h), 16))
}

// EnergyKey is the store key of the energy response for a job key.
func EnergyKey(jobKey string) string { return jobKey + "|energy" }

// Executor returns the uncached serial MeasureFunc. It is not what a nil
// Options.Measure runs (that is the farm's own executor, which compiles
// through the binary cache); it is the plain form tests and benchmarks
// compare that executor against: compile the workload at the point's compiler
// settings, then simulate on the point's microarchitecture under the given
// instruction budget (0 means 500M, guarding miscompiled infinite loops).
// Errors are typed: CompileError, or SimError with Budget set on an
// instruction-budget overrun.
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
		st, err := sim.Simulate(prog, cfg, maxInstrs)
		if err != nil {
			// The typed Budget flag, never the message text: a rewording of
			// the fault message must not silently uncount a budget overrun.
			return Result{}, &SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
		}
		return Result{
			Cycles:       float64(st.Cycles),
			Energy:       st.Energy,
			Instructions: st.Instructions,
		}, nil
	}
}
