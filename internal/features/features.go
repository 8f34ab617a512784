// Package features extracts a deterministic, fixed-order numeric feature
// vector from a MiniC workload — the program half of the cross-program
// empirical models (ROADMAP item 3, following the static-feature approach
// of the HackMan exemplar and the program-embedding cost models in
// PAPERS.md).
//
// Two ingredient classes feed the vector:
//
//   - static features from the post-optimization IR and the linked binary
//     of one fixed reference compilation (-O3, issue width 4): operation
//     class mix, loop-nest depth histogram, branch/call density, basic
//     block size statistics, code footprint and global-data working set;
//   - cheap dynamic features from one functional-only interpretation of
//     the same binary, bounded by DynamicBudget instructions: dynamic
//     instruction mix, taken-branch rate, load/store balance and the
//     number of distinct data pages touched.
//
// The reference compilation is deliberately independent of the flag
// settings being modeled: features describe the program, the flag and
// microarchitecture blocks describe the configuration, and the cross model
// (exp.BuildCrossDataset) learns over their concatenation.
//
// Extraction is bit-deterministic — compilation and functional
// interpretation are sequential and seed-free — and cached process-wide by
// program fingerprint in a bounded par.Cache, so a corpus pass or a serving
// hot path pays the compile+interpret cost once per distinct source.
package features

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// SchemaVersion tags the feature definition. It participates in the
// fingerprint, so changing the vector's layout or any extraction detail
// invalidates cached vectors and every persisted cross-model keyed on them.
const SchemaVersion = 1

// DynamicBudget bounds the functional profiling run. A fixed budget keeps
// extraction cheap for arbitrarily large programs while staying
// deterministic: the profiled prefix of a deterministic execution is itself
// deterministic.
const DynamicBudget = 2_000_000

// Vector is a fixed-order raw feature vector; index i holds the feature
// named Names()[i].
type Vector []float64

// def is one feature: its name and the raw range used for coding onto
// [-1, 1] (the scale every other model input uses, paper Section 2.2).
type def struct {
	name   string
	lo, hi float64
}

// defs fixes the vector layout. Fractions and rates live on [0, 1]; counts
// are log2-transformed first (like the paper's LogInt variables) with
// ranges wide enough for the seed suite and generated corpora.
var defs = []def{
	{"static.log2-machine-instrs", 5, 14},
	{"static.log2-ir-instrs", 5, 14},
	{"static.frac-alu", 0, 1},
	{"static.frac-muldiv", 0, 1},
	{"static.frac-mem", 0, 1},
	{"static.frac-branch", 0, 1},
	{"static.frac-call", 0, 1},
	{"static.mean-bb-instrs", 2, 16},
	{"static.log2-max-bb-instrs", 1, 8},
	{"static.log2-num-loops", 0, 6},
	{"static.max-loop-depth", 0, 4},
	{"static.frac-instrs-depth0", 0, 1},
	{"static.frac-instrs-depth1", 0, 1},
	{"static.frac-instrs-depth2", 0, 1},
	{"static.frac-instrs-depth3p", 0, 1},
	{"static.log2-global-data-words", 0, 16},
	{"dyn.log2-instrs", 8, 21},
	{"dyn.frac-load", 0, 1},
	{"dyn.frac-store", 0, 1},
	{"dyn.frac-branch", 0, 1},
	{"dyn.taken-rate", 0, 1},
	{"dyn.load-frac-of-mem", 0, 1},
	{"dyn.frac-muldiv", 0, 1},
	{"dyn.log2-unique-pages", 0, 10},
}

// NumFeatures is the vector length.
func NumFeatures() int { return len(defs) }

// Names returns the feature names in vector order.
func Names() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// Code maps the raw vector onto coded [-1, 1] coordinates, clamping values
// outside the nominal range (a program bigger than the range edge carries
// no more signal than the edge).
func (v Vector) Code() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		d := defs[i]
		c := 2*(x-d.lo)/(d.hi-d.lo) - 1
		out[i] = math.Max(-1, math.Min(1, c))
	}
	return out
}

// refOptions is the fixed reference compilation every extraction uses.
func refOptions() compiler.Options { return compiler.O3() }

// Fingerprint identifies a program for feature caching and artifact keying:
// fnv64a over the schema version and the source text.
func Fingerprint(source string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "features-v%d|", SchemaVersion)
	h.Write([]byte(source))
	return fmt.Sprintf("%016x", h.Sum64())
}

// cacheSize bounds the extraction cache, in programs. The largest corpus the
// repo runs is `empirico -exp lopo`'s default, the seven seed programs plus
// 100 generated ones, so 256 holds any corpus pass whole. The bound is for
// the serving path, where every distinct source a client sends to
// /v1/predict-program would otherwise stay resident.
const cacheSize = 256

// cache memoizes extraction per program fingerprint.
var cache = par.NewCache[string, Vector](cacheSize)

// CacheStats reports the process-wide feature-cache counters. A miss is an
// extraction started.
func CacheStats() (hits, misses int64) {
	st := cache.Stats()
	return st.Hits, st.Misses
}

// ClearCache empties the cache (tests and benchmarks; production code never
// needs it — fingerprints are content-addressed).
func ClearCache() { cache.Clear() }

// Extract returns the feature vector of w, computing it on first sight of
// the source and serving every later request from the fingerprint cache.
// Callers must not mutate the result.
func Extract(w workloads.Workload) (Vector, error) {
	return ExtractSource(w.Source)
}

// ExtractSource is Extract for raw MiniC text (the serving path, where the
// program arrives in a request body rather than from the registry).
func ExtractSource(source string) (Vector, error) {
	v, _, err := cache.Get(context.Background(), Fingerprint(source), func() (Vector, error) { return extract(source) })
	return v, err
}

// log2p1 is the count transform: log2(1+x) keeps zero meaningful.
func log2p1(x float64) float64 { return math.Log2(1 + x) }

// extract runs the uncached pipeline: reference compile, IR statistics,
// binary statistics, functional profile.
func extract(source string) (Vector, error) {
	ast, err := lang.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	if err := lang.Check(ast); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}

	// Post-optimization IR at the reference settings.
	irProg, err := compiler.Lower(ast)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	compiler.OptimizeIR(irProg, refOptions())
	st := irStats(irProg)

	// Linked binary and dynamic profile at the same settings.
	bin, _, err := compiler.Compile(ast, refOptions())
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	prof, err := sim.ProfileProgram(bin, DynamicBudget)
	if err != nil {
		return nil, fmt.Errorf("features: functional run: %w", err)
	}

	dynTotal := float64(prof.Instrs)
	frac := func(n int64) float64 {
		if dynTotal == 0 {
			return 0
		}
		return float64(n) / dynTotal
	}
	mem := prof.Loads + prof.Stores
	loadFrac := 0.0
	if mem > 0 {
		loadFrac = float64(prof.Loads) / float64(mem)
	}
	takenRate := 0.0
	if prof.CondBranches > 0 {
		takenRate = float64(prof.TakenBranches) / float64(prof.CondBranches)
	}

	v := Vector{
		log2p1(float64(len(bin.Instrs))),
		log2p1(st.instrs),
		st.frac(st.alu),
		st.frac(st.muldiv),
		st.frac(st.mem),
		st.frac(st.branch),
		st.frac(st.call),
		st.meanBB,
		log2p1(st.maxBB),
		log2p1(st.loops),
		st.maxDepth,
		st.frac(st.depth[0]),
		st.frac(st.depth[1]),
		st.frac(st.depth[2]),
		st.frac(st.depth[3]),
		log2p1(float64(bin.DataSize / 8)),
		log2p1(dynTotal),
		frac(prof.Loads),
		frac(prof.Stores),
		frac(prof.CondBranches),
		takenRate,
		loadFrac,
		frac(prof.MulDiv),
		log2p1(float64(prof.UniquePages)),
	}
	if len(v) != len(defs) {
		panic("features: vector/schema length mismatch")
	}
	return v, nil
}

// staticStats accumulates IR-level counts across all functions.
type staticStats struct {
	instrs, alu, muldiv, mem, branch, call float64
	blocks                                 float64
	meanBB, maxBB                          float64
	loops, maxDepth                        float64
	depth                                  [4]float64 // instrs at loop depth 0, 1, 2, >=3
}

func (s *staticStats) frac(n float64) float64 {
	if s.instrs == 0 {
		return 0
	}
	return n / s.instrs
}

func irStats(p *ir.Program) staticStats {
	var s staticStats
	for _, f := range p.Funcs {
		f.RemoveUnreachable()
		dom := ir.ComputeDominators(f)
		loops := ir.FindLoops(f, dom)
		depths := ir.BlockLoopDepths(f, loops)
		s.loops += float64(len(loops))
		for _, l := range loops {
			if d := float64(l.Depth); d > s.maxDepth {
				s.maxDepth = d
			}
		}
		for _, b := range f.Blocks {
			n := float64(len(b.Instrs))
			s.blocks++
			s.instrs += n
			if n > s.maxBB {
				s.maxBB = n
			}
			bucket := depths[b]
			if bucket > 3 {
				bucket = 3
			}
			s.depth[bucket] += n
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpLoad, ir.OpStore, ir.OpPrefetch:
					s.mem++
				case ir.OpBr:
					s.branch++
				case ir.OpCall:
					s.call++
				case ir.OpMul, ir.OpDiv, ir.OpRem:
					s.muldiv++
				case ir.OpJmp, ir.OpRet, ir.OpNop:
					// Control glue: counted in the total only.
				default:
					s.alu++
				}
			}
		}
	}
	if s.blocks > 0 {
		s.meanBB = s.instrs / s.blocks
	}
	return s
}
