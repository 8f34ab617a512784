// Package compiler implements the optimizing MiniC compiler whose flags and
// heuristics form the compiler half of the paper's design space. It lowers
// the AST from internal/lang to the IR in internal/ir, runs the optimization
// passes selected by Options, and generates code for the synthetic ISA.
//
// The 14 tunable parameters mirror Table 1 of the paper exactly: nine binary
// optimization flags and five numeric heuristics governing inlining and loop
// unrolling.
package compiler

import "fmt"

// Options selects optimizations and heuristic settings, mirroring the gcc
// flags and --param values modeled in the paper (Table 1).
type Options struct {
	// Binary optimization flags (paper parameters 1-9).
	InlineFunctions   bool // -finline-functions
	UnrollLoops       bool // -funroll-loops
	ScheduleInsns     bool // -fschedule-insns2 (pre- and post-RA scheduling)
	LoopOptimize      bool // -floop-optimize (loop-invariant code motion)
	GCSE              bool // -fgcse (global CSE + const/copy propagation)
	StrengthReduce    bool // -fstrength-reduce (induction variable strength reduction)
	OmitFramePointer  bool // -fomit-frame-pointer
	ReorderBlocks     bool // -freorder-blocks
	PrefetchLoopArray bool // -fprefetch-loop-arrays

	// Numeric heuristics (paper parameters 10-14).
	MaxInlineInsnsAuto int // max callee IR instructions for auto-inlining [50,150]
	InlineUnitGrowth   int // max % growth of the compilation unit due to inlining [25,75]
	InlineCallCost     int // cost of a call relative to simple computation [12,20]
	MaxUnrollTimes     int // max unroll factor for a single loop [4,12]
	MaxUnrolledInsns   int // max instructions a loop may have to be unrolled [100,300]

	// TargetIssueWidth parameterizes the machine description used by the
	// instruction scheduler, mirroring the paper's per-functional-unit-
	// configuration compiler builds. It does not change correctness, only
	// the scheduler's resource model.
	TargetIssueWidth int
}

// Defaults for the numeric heuristics (the paper's "default O3" row in
// Table 6).
const (
	DefaultMaxInlineInsnsAuto = 100
	DefaultInlineUnitGrowth   = 50
	DefaultInlineCallCost     = 16
	DefaultMaxUnrollTimes     = 8
	DefaultMaxUnrolledInsns   = 200
)

// Hard caps on the numeric heuristics. They bound compile work and code
// size (the unroller grows a loop up to MaxUnrolledInsns, the inliner a
// unit by InlineUnitGrowth percent), each at least 8× the largest value the
// repository uses; they are safety limits, not Table 1's box, which Fig 3
// leaves below.
const (
	maxInlineInsnsAuto  = 1500
	maxInlineUnitGrowth = 600
	maxInlineCallCost   = 160
	maxUnrollTimes      = 100
	maxUnrolledInsns    = 2500
)

// HeuristicError reports a numeric heuristic outside [0, its hard cap].
type HeuristicError struct {
	Name       string // the Table 1 parameter, e.g. "max-unroll-times"
	Value, Cap int
}

func (e *HeuristicError) Error() string {
	return fmt.Sprintf("compiler: %s = %d outside [0, %d]", e.Name, e.Value, e.Cap)
}

// Validate checks every numeric heuristic against its hard cap; 0 selects
// the default. Compile calls it before any pass runs.
func (o Options) Validate() error {
	for _, h := range []HeuristicError{
		{"max-inline-insns-auto", o.MaxInlineInsnsAuto, maxInlineInsnsAuto},
		{"inline-unit-growth", o.InlineUnitGrowth, maxInlineUnitGrowth},
		{"inline-call-cost", o.InlineCallCost, maxInlineCallCost},
		{"max-unroll-times", o.MaxUnrollTimes, maxUnrollTimes},
		{"max-unrolled-insns", o.MaxUnrolledInsns, maxUnrolledInsns},
	} {
		if h.Value < 0 || h.Value > h.Cap {
			return &h
		}
	}
	return nil
}

// withDefaults fills zero-valued heuristics with their defaults.
func (o Options) withDefaults() Options {
	if o.MaxInlineInsnsAuto == 0 {
		o.MaxInlineInsnsAuto = DefaultMaxInlineInsnsAuto
	}
	if o.InlineUnitGrowth == 0 {
		o.InlineUnitGrowth = DefaultInlineUnitGrowth
	}
	if o.InlineCallCost == 0 {
		o.InlineCallCost = DefaultInlineCallCost
	}
	if o.MaxUnrollTimes == 0 {
		o.MaxUnrollTimes = DefaultMaxUnrollTimes
	}
	if o.MaxUnrolledInsns == 0 {
		o.MaxUnrolledInsns = DefaultMaxUnrolledInsns
	}
	if o.TargetIssueWidth == 0 {
		o.TargetIssueWidth = 4
	}
	return o
}

// O0 returns options with every optimization disabled.
func O0() Options { return Options{}.withDefaults() }

// O2 returns the baseline optimization level used throughout the paper's
// speedup comparisons: scheduling, loop optimization, GCSE, strength
// reduction, frame-pointer omission and block reordering on; inlining,
// unrolling and prefetching off (as in gcc's -O2 for the modeled flags).
func O2() Options {
	return Options{
		ScheduleInsns:    true,
		LoopOptimize:     true,
		GCSE:             true,
		StrengthReduce:   true,
		OmitFramePointer: true,
		ReorderBlocks:    true,
	}.withDefaults()
}

// O3 returns the paper's "default O3" configuration (Table 6, last row):
// O2 plus function inlining and loop-array prefetching, with default
// heuristic values. Loop unrolling stays off, as in the paper.
func O3() Options {
	o := O2()
	o.InlineFunctions = true
	o.PrefetchLoopArray = true
	return o
}

func (o Options) String() string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf(
		"inline=%d unroll=%d sched=%d loopopt=%d gcse=%d strength=%d omitfp=%d reorder=%d prefetch=%d "+
			"max-inline-insns=%d unit-growth=%d call-cost=%d max-unroll=%d max-unrolled-insns=%d",
		b(o.InlineFunctions), b(o.UnrollLoops), b(o.ScheduleInsns),
		b(o.LoopOptimize), b(o.GCSE), b(o.StrengthReduce),
		b(o.OmitFramePointer), b(o.ReorderBlocks), b(o.PrefetchLoopArray),
		o.MaxInlineInsnsAuto, o.InlineUnitGrowth, o.InlineCallCost,
		o.MaxUnrollTimes, o.MaxUnrolledInsns)
}
