// Package doe implements the experimental-design half of the paper: the
// joint compiler/microarchitecture parameter space (Tables 1 and 2), coded
// variable transformations, Latin hypercube and random candidate generation,
// and Fedorov-exchange D-optimal design selection.
package doe

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/compiler"
	"repro/internal/sim"
)

// VarKind classifies a predictor variable.
type VarKind uint8

const (
	// Flag is a binary categorical variable encoded 0/1.
	Flag VarKind = iota
	// Int is an ordinary discrete variable varied at evenly spaced levels.
	Int
	// LogInt is a discrete variable that only varies in powers of two and
	// is log-transformed before coding (cache sizes, buffer sizes).
	LogInt
)

// Var describes one predictor variable and its range.
type Var struct {
	Name   string
	Kind   VarKind
	Low    int64 // inclusive raw bound
	High   int64 // inclusive raw bound
	Levels int   // number of levels between Low and High
}

// LevelValues returns the raw values the variable may take, ascending.
func (v Var) LevelValues() []int64 {
	switch v.Kind {
	case Flag:
		return []int64{0, 1}
	case LogInt:
		var vals []int64
		lo, hi := math.Log2(float64(v.Low)), math.Log2(float64(v.High))
		for i := 0; i < v.Levels; i++ {
			f := lo + (hi-lo)*float64(i)/float64(v.Levels-1)
			vals = append(vals, int64(math.Round(math.Pow(2, f))))
		}
		return dedupe(vals)
	default:
		if v.Levels <= 1 {
			return []int64{v.Low}
		}
		var vals []int64
		for i := 0; i < v.Levels; i++ {
			f := float64(v.Low) + float64(v.High-v.Low)*float64(i)/float64(v.Levels-1)
			vals = append(vals, int64(math.Round(f)))
		}
		return dedupe(vals)
	}
}

func dedupe(vals []int64) []int64 {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Space is an ordered set of predictor variables; a design point assigns a
// raw value to each. Vars must not change once the space has coded or drawn
// a point.
type Space struct {
	Vars []Var

	codingOnce sync.Once
	coding     coder
}

// coder is what Var.Code derives from the bounds alone, per variable: the
// low bound and the span on the variable's own scale (log2 for LogInt). A
// variable whose bounds coincide there codes every value as 0; it is listed
// apart so that coding the others takes no branch for it. levels holds each
// variable's LevelValues, computed once for every draw that reads them.
type coder struct {
	vars   []varCoder
	fixed  []int
	levels [][]int64
}

type varCoder struct {
	lo, span float64
	log      bool
}

// coder returns the space's coder, built on first use so that a Space
// literal needs nothing but its Vars.
func (s *Space) coder() *coder {
	s.codingOnce.Do(func() {
		s.coding.vars = make([]varCoder, len(s.Vars))
		s.coding.levels = make([][]int64, len(s.Vars))
		for i, v := range s.Vars {
			s.coding.levels[i] = v.LevelValues()
			lo, hi := float64(v.Low), float64(v.High)
			if v.Kind == LogInt {
				lo, hi = math.Log2(lo), math.Log2(hi)
			}
			s.coding.vars[i] = varCoder{lo: lo, span: hi - lo, log: v.Kind == LogInt}
			if hi == lo {
				s.coding.fixed = append(s.coding.fixed, i)
			}
		}
	})
	return &s.coding
}

// Point is a raw-valued design point (one value per Space variable).
type Point []int64

// NumVars returns the dimensionality of the space.
func (s *Space) NumVars() int { return len(s.Vars) }

// Code maps a raw point to coded coordinates.
func (s *Space) Code(p Point) []float64 {
	return s.CodeInto(p, make([]float64, len(s.Vars)))
}

// CodeInto is Code writing into dst (grown if needed), for callers that
// reuse a buffer across points — the service's predict hot path. Returns
// the slice holding the coded coordinates. Each value is Var.Code's, bit for
// bit: the same float operations in the same order, on bounds coded once per
// space.
func (s *Space) CodeInto(p Point, dst []float64) []float64 {
	c := s.coder()
	if cap(dst) < len(c.vars) {
		dst = make([]float64, len(c.vars))
	}
	dst = dst[:len(c.vars)]
	if len(p) < len(c.vars) { // checked once, so the loop indexes p unchecked
		panic(fmt.Sprintf("doe: point has %d values, space has %d vars", len(p), len(c.vars)))
	}
	for i, v := range c.vars {
		raw := p[i]
		x := float64(raw)
		if v.log {
			// math.Log2 of a power of two is its exponent, exactly; it is
			// read off the bits, and any other value goes to math.Log2.
			if raw > 0 && raw&(raw-1) == 0 {
				x = float64(bits.TrailingZeros64(uint64(raw)))
			} else {
				x = math.Log2(x)
			}
		}
		dst[i] = 2*(x-v.lo)/v.span - 1
	}
	for _, i := range c.fixed {
		dst[i] = 0
	}
	return dst
}

// Levels returns variable i's level grid, Vars[i].LevelValues() computed
// once per space. The slice is shared: callers must not modify it.
func (s *Space) Levels(i int) []int64 { return s.coder().levels[i] }

// RandomPoint draws each variable uniformly from its levels.
func (s *Space) RandomPoint(rng *rand.Rand) Point {
	p := make(Point, len(s.Vars))
	for i, levels := range s.coder().levels {
		p[i] = levels[rng.Intn(len(levels))]
	}
	return p
}

// LatinHypercube draws n points stratified per dimension: each variable's
// levels are sampled in shuffled, evenly covering order.
func (s *Space) LatinHypercube(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = make(Point, len(s.Vars))
	}
	for d, levels := range s.coder().levels {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			// Stratum perm[i] of n maps onto the level grid.
			li := perm[i] * len(levels) / n
			pts[i][d] = levels[li]
		}
	}
	return pts
}

// Validate checks that a point has one value per variable, each within
// [Low, High] — for a flag, 0 or 1.
func (s *Space) Validate(p Point) error {
	if len(p) != len(s.Vars) {
		return fmt.Errorf("doe: point has %d values, space has %d vars", len(p), len(s.Vars))
	}
	for i, v := range s.Vars {
		if p[i] < v.Low || p[i] > v.High {
			return fmt.Errorf("doe: %s = %d out of range [%d, %d]", v.Name, p[i], v.Low, v.High)
		}
	}
	return nil
}

// ParsePoint reads a joint-space point written as the JSON array that
// /v1/measure takes, e.g. "[0,0,1,…,100]". It requires one integer per
// JointSpace variable but does not hold them to the Table 1/2 box: a value
// outside it is refused by compiler.Options.Validate and sim.Config.Validate
// only where it cannot be built, as for a leased point.
func ParsePoint(s string) (Point, error) {
	var p Point
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return nil, fmt.Errorf("doe: point %q: %w", s, err)
	}
	if n := JointSpace().NumVars(); len(p) != n {
		return nil, fmt.Errorf("doe: point has %d values, the joint space has %d", len(p), n)
	}
	return p, nil
}

// CompilerVars returns the 14 compiler variables of Table 1, in the paper's
// order.
func CompilerVars() []Var {
	return []Var{
		{Name: "finline-functions", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "funroll-loops", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "fschedule-insns2", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "floop-optimize", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "fgcse", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "fstrength-reduce", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "fomit-frame-pointer", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "freorder-blocks", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "fprefetch-loop-arrays", Kind: Flag, Low: 0, High: 1, Levels: 2},
		{Name: "max-inline-insns-auto", Kind: Int, Low: 50, High: 150, Levels: 11},
		{Name: "inline-unit-growth", Kind: Int, Low: 25, High: 75, Levels: 11},
		{Name: "inline-call-cost", Kind: Int, Low: 12, High: 20, Levels: 9},
		{Name: "max-unroll-times", Kind: Int, Low: 4, High: 12, Levels: 9},
		{Name: "max-unrolled-insns", Kind: Int, Low: 100, High: 300, Levels: 21},
	}
}

// MicroarchVars returns the 11 microarchitectural variables of Table 2.
// Variables marked "*" in the paper are log-transformed (LogInt here).
func MicroarchVars() []Var {
	return []Var{
		{Name: "issue-width", Kind: Int, Low: 2, High: 4, Levels: 2},
		{Name: "bpred-size", Kind: LogInt, Low: 512, High: 8192, Levels: 5},
		{Name: "ruu-size", Kind: LogInt, Low: 16, High: 128, Levels: 4},
		{Name: "icache-kb", Kind: LogInt, Low: 8, High: 128, Levels: 5},
		{Name: "dcache-kb", Kind: LogInt, Low: 8, High: 128, Levels: 5},
		{Name: "dcache-assoc", Kind: Int, Low: 1, High: 2, Levels: 2},
		{Name: "dcache-lat", Kind: Int, Low: 1, High: 3, Levels: 3},
		{Name: "l2-kb", Kind: LogInt, Low: 256, High: 8192, Levels: 6},
		{Name: "l2-assoc", Kind: LogInt, Low: 1, High: 8, Levels: 4},
		{Name: "l2-lat", Kind: Int, Low: 6, High: 16, Levels: 11},
		{Name: "mem-lat", Kind: Int, Low: 50, High: 150, Levels: 21},
	}
}

// JointSpace returns the paper's 25-variable space: compiler variables
// first, then microarchitectural ones.
func JointSpace() *Space {
	return &Space{Vars: append(CompilerVars(), MicroarchVars()...)}
}

// MicroarchSpace returns the 11-variable microarchitecture-only space.
func MicroarchSpace() *Space { return &Space{Vars: MicroarchVars()} }

// NumCompilerVars is the count of compiler variables preceding the
// microarchitectural block in the joint space.
const NumCompilerVars = 14

// ToOptions converts the compiler block of a joint-space point (or of a
// point over CompilerVars alone) into compiler.Options. issueWidth
// parameterizes the scheduler's machine model; pass the microarch issue
// width for joint points.
func ToOptions(p Point, issueWidth int) compiler.Options {
	b := func(i int) bool { return p[i] != 0 }
	return compiler.Options{
		InlineFunctions:    b(0),
		UnrollLoops:        b(1),
		ScheduleInsns:      b(2),
		LoopOptimize:       b(3),
		GCSE:               b(4),
		StrengthReduce:     b(5),
		OmitFramePointer:   b(6),
		ReorderBlocks:      b(7),
		PrefetchLoopArray:  b(8),
		MaxInlineInsnsAuto: int(p[9]),
		InlineUnitGrowth:   int(p[10]),
		InlineCallCost:     int(p[11]),
		MaxUnrollTimes:     int(p[12]),
		MaxUnrolledInsns:   int(p[13]),
		TargetIssueWidth:   issueWidth,
	}
}

// ToConfig converts the microarchitectural block of a joint-space point
// (indices NumCompilerVars..) into a simulator configuration.
func ToConfig(p Point) sim.Config {
	m := p[NumCompilerVars:]
	return sim.Config{
		IssueWidth:  int(m[0]),
		BPredSize:   int(m[1]),
		RUUSize:     int(m[2]),
		ICacheKB:    int(m[3]),
		DCacheKB:    int(m[4]),
		DCacheAssoc: int(m[5]),
		DCacheLat:   int(m[6]),
		L2KB:        int(m[7]),
		L2Assoc:     int(m[8]),
		L2Lat:       int(m[9]),
		MemLat:      int(m[10]),
	}
}

// FromConfig converts a simulator configuration into the microarchitectural
// block of a joint-space point.
func FromConfig(c sim.Config) []int64 {
	return []int64{
		int64(c.IssueWidth), int64(c.BPredSize), int64(c.RUUSize),
		int64(c.ICacheKB), int64(c.DCacheKB), int64(c.DCacheAssoc),
		int64(c.DCacheLat), int64(c.L2KB), int64(c.L2Assoc),
		int64(c.L2Lat), int64(c.MemLat),
	}
}

// FromOptions converts compiler options into the compiler block of a
// joint-space point.
func FromOptions(o compiler.Options) []int64 {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	return []int64{
		b(o.InlineFunctions), b(o.UnrollLoops), b(o.ScheduleInsns),
		b(o.LoopOptimize), b(o.GCSE), b(o.StrengthReduce),
		b(o.OmitFramePointer), b(o.ReorderBlocks), b(o.PrefetchLoopArray),
		int64(o.MaxInlineInsnsAuto), int64(o.InlineUnitGrowth),
		int64(o.InlineCallCost), int64(o.MaxUnrollTimes),
		int64(o.MaxUnrolledInsns),
	}
}

// JoinPoint concatenates a compiler block and a microarch block into a
// joint-space point.
func JoinPoint(comp, march []int64) Point {
	p := make(Point, 0, len(comp)+len(march))
	p = append(p, comp...)
	p = append(p, march...)
	return p
}
