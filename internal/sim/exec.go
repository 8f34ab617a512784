package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
)

// Memory is the executor's word-addressed data memory in three parts. The
// globals slab holds the program's static data, [GlobalBase,
// GlobalBase+DataSize), sized once by NewExecutor. The stack slab owns the
// stackRegion bytes below StackBase: it starts at stackInitBytes and grows
// down (doubling, capped at the region's floor) when a store lands below its
// bottom, so a load there that the slab does not reach reads a never-written
// 0. Every other address is a word in a plain map. A load or store that hits
// a slab is two range checks and an index. Unaligned addresses are truncated
// to their word; the three parts never hold the same word, because every
// access tries them in the same order.
type Memory struct {
	globals []int64 // word i is byte address GlobalBase + 8i
	stack   []int64 // word i is byte address stackLo + 8i; the slab ends at StackBase
	stackLo uint64
	other   map[uint64]int64 // keyed by byte address >> 3
}

const (
	stackInitBytes = 16 << 10
	// stackRegion bounds the stack slab at 256x the 16 KiB that every
	// workload's stack fits in: a store deeper than 4 MiB below StackBase
	// goes to the map like any other address.
	stackRegion = 4 << 20
	stackFloor  = isa.StackBase - stackRegion
	// maxGlobalBytes bounds the globals slab, at 14x the largest workload's
	// static data (181.mcf at ref input, 1.1 MB). A program that declares
	// more keeps the words above the bound in the map, so an array of any
	// declared size costs only the words it touches beyond the bound.
	maxGlobalBytes = 16 << 20
)

// newMemory returns an empty memory whose globals slab covers dataSize bytes.
func newMemory(dataSize int64) *Memory {
	dataSize = min(max(dataSize, 0), maxGlobalBytes)
	return &Memory{
		globals: make([]int64, (dataSize+7)/8),
		stack:   make([]int64, stackInitBytes/8),
		stackLo: isa.StackBase - stackInitBytes,
		other:   map[uint64]int64{},
	}
}

// Load reads the word at byte address addr.
func (m *Memory) Load(addr uint64) int64 {
	if i := (addr - isa.GlobalBase) >> 3; i < uint64(len(m.globals)) {
		return m.globals[i]
	}
	if i := (addr - m.stackLo) >> 3; i < uint64(len(m.stack)) {
		return m.stack[i]
	}
	return m.other[addr>>3]
}

// Store writes the word at byte address addr. A store below the stack slab's
// bottom but within its region grows the slab down to it.
func (m *Memory) Store(addr uint64, val int64) {
	if i := (addr - isa.GlobalBase) >> 3; i < uint64(len(m.globals)) {
		m.globals[i] = val
		return
	}
	if i := (addr - m.stackLo) >> 3; i < uint64(len(m.stack)) {
		m.stack[i] = val
		return
	}
	if addr < stackFloor || addr >= m.stackLo {
		m.other[addr>>3] = val
		return
	}
	lo := m.stackLo
	for lo > addr {
		lo = max(isa.StackBase-2*(isa.StackBase-lo), stackFloor)
	}
	stack := make([]int64, (isa.StackBase-lo)/8)
	copy(stack[(m.stackLo-lo)/8:], m.stack)
	m.stack, m.stackLo = stack, lo
	m.stack[(addr-lo)>>3] = val
}

// Executor interprets a program instruction-by-instruction, producing the
// dynamic stream consumed by the timing model.
type Executor struct {
	Prog *isa.Program
	Mem  *Memory
	Regs [isa.NumRegs]int64

	PC     int32
	Halted bool

	// Count is the number of instructions executed so far.
	Count int64

	dec *DecodedProgram
}

// Decoded returns the program's pre-decoded metadata table, built once in
// NewExecutor and shared read-only with any number of timing models.
func (e *Executor) Decoded() *DecodedProgram { return e.dec }

// TraceEntry describes one executed instruction for the timing model.
type TraceEntry struct {
	PC     int32  // instruction index
	NextPC int32  // index of the next instruction executed
	Addr   uint64 // effective byte address for memory operations
	Taken  bool   // conditional branches: was the branch taken
}

// NewExecutor prepares an executor with globals initialized and the stack
// pointer set.
func NewExecutor(p *isa.Program) *Executor {
	e := &Executor{Prog: p, Mem: newMemory(p.DataSize), PC: p.Entry, dec: Decode(p)}
	e.Regs[isa.RegSP] = isa.StackBase
	for _, di := range p.Init {
		e.Mem.Store(di.Addr, di.Val)
	}
	return e
}

// ErrFault is returned for invalid memory or control transfers, which
// indicate a compiler bug rather than a program property. Budget marks the
// one benign variant — the instruction budget ran out — so callers classify
// on the flag, never on the message text.
type ErrFault struct {
	PC     int32
	Msg    string
	Budget bool
}

func (e *ErrFault) Error() string {
	return fmt.Sprintf("sim: fault at pc %d: %s", e.PC, e.Msg)
}

// IsBudget reports whether err is (or wraps) a budget-overrun fault.
func IsBudget(err error) bool {
	var f *ErrFault
	return errors.As(err, &f) && f.Budget
}

// budgetFault builds the canonical budget-overrun fault.
func budgetFault(pc int32, maxInstrs int64) *ErrFault {
	return &ErrFault{PC: pc, Msg: fmt.Sprintf("instruction budget %d exceeded", maxInstrs), Budget: true}
}

const minValidAddr = 4096

// Step executes one instruction and reports it: fillChunk with a one-entry
// buffer and no budget. After the final halt, ok is false.
func (e *Executor) Step() (entry TraceEntry, ok bool, err error) {
	if e.Halted {
		return TraceEntry{}, false, nil
	}
	var buf [1]TraceEntry
	if _, err = e.fillChunk(buf[:], math.MaxInt64); err != nil {
		return TraceEntry{}, false, err
	}
	return buf[0], true, nil
}

// Run executes until halt or until maxInstrs is exceeded, returning the
// number of instructions executed and main's return value.
func (e *Executor) Run(maxInstrs int64) (int64, int64, error) {
	if err := e.Trace(maxInstrs, func([]TraceEntry) {}); err != nil {
		return e.Count, 0, err
	}
	return e.Count, e.Regs[isa.RegRV], nil
}

// regIdxMask masks register indices read back out of instrMeta. Decode
// verifies every register field is < isa.NumRegs, so the mask is a no-op
// that exists purely to let the compiler elide bounds checks in the hot
// loops (isa.NumRegs is a power of two).
const regIdxMask = isa.NumRegs - 1

// fillChunk is the ISA interpreter outside the bb kernel: Step, Run and
// Trace all execute through it. It executes up to len(ents) instructions,
// stopping before Count reaches maxInstrs, with pc, count and the decoded
// table held in locals, and records each in ents. It returns early on halt
// (the halt instruction is the last entry), when the budget is exhausted (a
// typed budget fault, IsBudget reports true) or on a fault. The faulting
// instruction is never recorded and never executed: ents[:n] holds exactly
// the instructions before it, and PC and Count are left at the faulting
// instruction.
func (e *Executor) fillChunk(ents []TraceEntry, maxInstrs int64) (n int, err error) {
	meta := e.dec.meta
	r := &e.Regs
	mem := e.Mem
	pc := e.PC
	count := e.Count
	halted := e.Halted

loop:
	for n < len(ents) && !halted {
		if count >= maxInstrs {
			err = budgetFault(pc, maxInstrs)
			break
		}
		if uint32(pc) >= uint32(len(meta)) { // also catches negative PCs
			err = &ErrFault{PC: pc, Msg: "pc out of range"}
			break
		}
		m := &meta[pc]
		nextPC := pc + 1
		var addr uint64
		taken := false

		switch m.op {
		case isa.OpNop:
		case isa.OpAdd:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] + r[m.rs2&regIdxMask]
		case isa.OpSub:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] - r[m.rs2&regIdxMask]
		case isa.OpAnd:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] & r[m.rs2&regIdxMask]
		case isa.OpOr:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] | r[m.rs2&regIdxMask]
		case isa.OpXor:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] ^ r[m.rs2&regIdxMask]
		case isa.OpShl:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] << (uint64(r[m.rs2&regIdxMask]) & 63)
		case isa.OpShr:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] >> (uint64(r[m.rs2&regIdxMask]) & 63)
		case isa.OpSlt:
			r[m.rd&regIdxMask] = b2i(r[m.rs1&regIdxMask] < r[m.rs2&regIdxMask])
		case isa.OpSle:
			r[m.rd&regIdxMask] = b2i(r[m.rs1&regIdxMask] <= r[m.rs2&regIdxMask])
		case isa.OpSeq:
			r[m.rd&regIdxMask] = b2i(r[m.rs1&regIdxMask] == r[m.rs2&regIdxMask])
		case isa.OpSne:
			r[m.rd&regIdxMask] = b2i(r[m.rs1&regIdxMask] != r[m.rs2&regIdxMask])
		case isa.OpAddi:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] + m.imm
		case isa.OpLui:
			r[m.rd&regIdxMask] = m.imm
		case isa.OpMul:
			r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] * r[m.rs2&regIdxMask]
		case isa.OpDiv:
			if r[m.rs2&regIdxMask] == 0 {
				r[m.rd&regIdxMask] = 0
			} else {
				r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] / r[m.rs2&regIdxMask]
			}
		case isa.OpRem:
			if r[m.rs2&regIdxMask] == 0 {
				r[m.rd&regIdxMask] = 0
			} else {
				r[m.rd&regIdxMask] = r[m.rs1&regIdxMask] % r[m.rs2&regIdxMask]
			}
		case isa.OpLoad:
			addr = uint64(r[m.rs1&regIdxMask] + m.imm)
			if addr < minValidAddr {
				err = &ErrFault{PC: pc, Msg: fmt.Sprintf("load from %#x", addr)}
				break loop
			}
			r[m.rd&regIdxMask] = mem.Load(addr)
		case isa.OpStore:
			addr = uint64(r[m.rs1&regIdxMask] + m.imm)
			if addr < minValidAddr {
				err = &ErrFault{PC: pc, Msg: fmt.Sprintf("store to %#x", addr)}
				break loop
			}
			mem.Store(addr, r[m.rs2&regIdxMask])
		case isa.OpPrefetch:
			addr = uint64(r[m.rs1&regIdxMask] + m.imm) // non-binding: no fault
		case isa.OpBeq:
			taken = r[m.rs1&regIdxMask] == r[m.rs2&regIdxMask]
			if taken {
				nextPC = m.target
			}
		case isa.OpBne:
			taken = r[m.rs1&regIdxMask] != r[m.rs2&regIdxMask]
			if taken {
				nextPC = m.target
			}
		case isa.OpBlt:
			taken = r[m.rs1&regIdxMask] < r[m.rs2&regIdxMask]
			if taken {
				nextPC = m.target
			}
		case isa.OpBge:
			taken = r[m.rs1&regIdxMask] >= r[m.rs2&regIdxMask]
			if taken {
				nextPC = m.target
			}
		case isa.OpJump:
			nextPC = m.target
		case isa.OpCall:
			r[isa.RegRA] = int64(pc + 1)
			nextPC = m.target
		case isa.OpRet:
			nextPC = int32(r[isa.RegRA])
		case isa.OpHalt:
			halted = true
			e.Halted = true
			nextPC = pc
		default:
			err = &ErrFault{PC: pc, Msg: fmt.Sprintf("unknown opcode %d", m.op)}
			break loop
		}
		r[isa.RegZero] = 0 // r0 stays hardwired even if targeted
		ents[n] = TraceEntry{PC: pc, NextPC: nextPC, Addr: addr, Taken: taken}
		n++
		pc = nextPC
		count++
	}

	e.PC = pc
	e.Count = count
	return n, err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
