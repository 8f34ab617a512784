package sim

import (
	"sync"

	"repro/internal/isa"
)

// instrMeta is the pre-decoded, cache-friendly form of one static
// instruction: everything the timing model needs per dynamic instance
// (functional-unit class, latency, source/destination registers, control and
// memory flags, icache line) resolved once so the hot loop indexes a flat
// table instead of re-running the isa.Op switches on every committed
// instruction.
type instrMeta struct {
	pcByte uint64  // byte address of the instruction slot
	line   uint64  // icache line id + 1 (0 is reserved for "none")
	energy float64 // per-commit energy cost of the opcode class
	lat    int64   // fixed execute latency (memory ops add hierarchy time)
	imm    int64   // immediate / displacement (copied from the instruction)
	target int32   // control-transfer target (copied from the instruction)
	op     isa.Op  // opcode (copied so the interpreters read one record)
	rd     uint8   // raw destination field, for the functional switch
	rs1    uint8   // raw first source field
	rs2    uint8   // raw second source field
	src1   uint8   // first dataflow source register (RegZero = unused)
	src2   uint8   // second dataflow source register (RegZero = unused)
	dest   uint8   // destination register (RegZero = no register write)
	fu     uint8   // isa.FUClass with FUNone folded into FUIntALU
	flags  uint8
	_      [11]uint8 // pad to 64 bytes: one record per cache line
}

const (
	flagLoad        uint8 = 1 << iota // load: execute latency is the hierarchy's
	flagStoreLike                     // store/prefetch: fills hierarchy, latency hidden
	flagBranch                        // conditional branch (predicted)
	flagControl                       // any PC redirect, ends the fetch group
	flagUnpipelined                   // occupies its functional unit for the full latency
)

// decodeInstr computes the metadata for the instruction at pc. It must agree
// exactly with the isa.Op predicate methods; the golden determinism test
// holds the two in lockstep. Register fields are validated against
// isa.NumRegs here so the interpreters' masked indexing (regIdxMask) is
// provably a no-op.
func decodeInstr(in *isa.Instr, pc int32) instrMeta {
	if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
		panic(&ErrFault{PC: pc, Msg: "register field out of range"})
	}
	m := instrMeta{
		pcByte: isa.PCByte(pc),
		energy: instrEnergy(in.Op),
		lat:    int64(in.Op.Latency()),
		imm:    in.Imm,
		target: in.Target,
		op:     in.Op,
		rd:     in.Rd,
		rs1:    in.Rs1,
		rs2:    in.Rs2,
	}
	m.line = m.pcByte>>6 + 1
	fu := in.Op.Class()
	if fu == isa.FUNone {
		fu = isa.FUIntALU
	}
	m.fu = uint8(fu)
	m.src1, m.src2 = instrSources(in)
	if in.Op.WritesReg() {
		rd := in.Rd
		if in.Op == isa.OpCall {
			rd = isa.RegRA
		}
		m.dest = rd
	}
	switch in.Op {
	case isa.OpLoad:
		m.flags |= flagLoad
	case isa.OpStore, isa.OpPrefetch:
		m.flags |= flagStoreLike
	case isa.OpDiv, isa.OpRem:
		m.flags |= flagUnpipelined
	}
	if in.Op.IsBranch() {
		m.flags |= flagBranch
	}
	if in.Op.IsControl() {
		m.flags |= flagControl
	}
	return m
}

// DecodedProgram pairs a program with its flat per-instruction metadata
// table, built once per program (NewExecutor does it implicitly) and shared
// read-only by any number of CPUs — the SMARTS parallel replay workers all
// index the same table.
type DecodedProgram struct {
	Prog *isa.Program
	meta []instrMeta

	trOnce sync.Once
	tr     *translation
}

// translation returns the program's basic-block translation, built lazily on
// the first translated run and shared read-only afterwards.
func (d *DecodedProgram) translation() *translation {
	d.trOnce.Do(func() { d.tr = buildTranslation(d) })
	return d.tr
}

// Decode builds the metadata table for p.
func Decode(p *isa.Program) *DecodedProgram {
	d := &DecodedProgram{Prog: p, meta: make([]instrMeta, len(p.Instrs))}
	for i := range p.Instrs {
		d.meta[i] = decodeInstr(&p.Instrs[i], int32(i))
	}
	return d
}
