package compiler

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/lang"
)

// Stats reports static properties of a compilation, used by tests and the
// experiment harness to sanity-check that flags actually change the code.
type Stats struct {
	IRInstrs      int // IR instructions after optimization
	MachineInstrs int // final executable length
	SpillSlots    int // total spill slots across functions
}

// Compile runs the full pipeline on a checked MiniC program: lowering,
// the optimization passes selected by opts (OptimizeIR), register
// allocation, code generation, layout and linking. Options outside
// Validate's hard caps are a *HeuristicError before any pass runs.
func Compile(src *lang.Program, opts Options) (*isa.Program, *Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()

	p, err := Lower(src)
	if err != nil {
		return nil, nil, err
	}
	OptimizeIR(p, opts)
	for _, f := range p.Funcs {
		// Refresh the static profile for layout and allocation weights.
		f.RemoveUnreachable()
		dom := ir.ComputeDominators(f)
		loops := ir.FindLoops(f, dom)
		ir.EstimateFrequencies(f, loops)
	}
	if err := ir.VerifyProgram(p); err != nil {
		return nil, nil, fmt.Errorf("compiler: optimization broke the IR: %w", err)
	}

	if opts.ScheduleInsns {
		for _, f := range p.Funcs {
			ScheduleIR(f, opts.TargetIssueWidth)
		}
	}

	offsets, _ := p.GlobalOffsets()
	globals := make(map[string]int64, len(offsets))
	for name, off := range offsets {
		globals[name] = isa.GlobalBase + off
	}

	stats := &Stats{IRInstrs: p.InstrCount()}
	var mfs []*MachineFunc
	for _, f := range p.Funcs {
		alloc := Allocate(f, opts.OmitFramePointer)
		stats.SpillSlots += alloc.NumSlots
		mf, err := GenFunc(f, alloc, opts.OmitFramePointer, globals)
		if err != nil {
			return nil, nil, err
		}
		mfs = append(mfs, mf)
	}
	prog, err := Link(p, mfs, opts)
	if err != nil {
		return nil, nil, err
	}
	stats.MachineInstrs = len(prog.Instrs)
	return prog, stats, nil
}

// CompileSource parses, checks and compiles MiniC source text.
func CompileSource(src string, opts Options) (*isa.Program, *Stats, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if err := lang.Check(prog); err != nil {
		return nil, nil, err
	}
	return Compile(prog, opts)
}

// OptimizeIR applies the IR-level passes of opts to an already-lowered
// program: the optimization half of Compile, which minicc -dump-ir calls to
// show the IR every measured binary is built from.
func OptimizeIR(p *ir.Program, opts Options) {
	opts = opts.withDefaults()
	CleanupProgram(p)
	if opts.InlineFunctions {
		Inline(p, opts)
		CleanupProgram(p)
	}
	for _, f := range p.Funcs {
		if opts.GCSE {
			GCSE(f)
		}
		if opts.LoopOptimize {
			LICM(f)
		}
		if opts.StrengthReduce {
			StrengthReduce(f)
		}
		if opts.UnrollLoops {
			Unroll(f, opts)
			if opts.GCSE {
				GCSE(f) // clean cross-copy redundancy exposed by unrolling
			}
		}
		if opts.PrefetchLoopArray {
			InsertPrefetches(f)
		}
		Cleanup(f)
	}
}
