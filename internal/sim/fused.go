package sim

import (
	"fmt"

	"repro/internal/isa"
)

// fuMaxUnits bounds the per-class functional-unit count; Config.Validate
// caps IssueWidth at 8 and NewCPU never allocates more units than that.
const fuMaxUnits = 8

// regIdxMask masks register indices read back out of instrMeta. Decode
// verifies every register field is < isa.NumRegs, so the mask is a no-op
// that exists purely to let the compiler elide bounds checks in the hot
// loop (isa.NumRegs is a power of two).
const regIdxMask = isa.NumRegs - 1

// runFused is the fused engine: Trace with the chunk timing kernel as its
// one consumer — SimulateMany with one config and no channels. It is the
// slow path of runTranslated and the EngineFused tier; the golden
// determinism test and TestFusedMatchesFeed hold it bit-for-bit equal to
// Step + feed per instruction. It emits no TraceEvents.
//
// Kept out of line: inlined into runTranslated, whose one-way slow path it
// is, the closure costs that function's hot loop ~25 % in register pressure
// (BenchmarkSimulatorThroughput, min of 25: 24–28 ms → 32–35 ms).
//
//go:noinline
func runFused(exe *Executor, cpu *CPU, maxInstrs int64) error {
	return exe.Trace(maxInstrs, func(ents []TraceEntry) { cpu.FeedChunk(exe.dec, ents) })
}

// fillChunk is the functional producer behind Trace: it executes up to
// len(ents) instructions — the same semantics as that many Step calls under
// Run's budget check, with pc, count and the decoded table held in locals —
// and records each in ents.
// It returns early on halt (the halt instruction is the last entry), when
// the budget is exhausted (a typed budget fault, IsBudget reports true) or
// on a fault. The faulting instruction is never recorded and never
// executed: ents[:n] holds exactly the instructions before it, and PC and
// Count are left at the faulting instruction, as Step leaves them.
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
			w := addr >> 3
			pi := w >> (pageShift - 3)
			if pi == mem.lastIdx && mem.lastPage != nil {
				r[m.rd&regIdxMask] = mem.lastPage[w&(pageWords-1)]
			} else {
				r[m.rd&regIdxMask] = mem.Load(addr)
			}
		case isa.OpStore:
			addr = uint64(r[m.rs1&regIdxMask] + m.imm)
			if addr < minValidAddr {
				err = &ErrFault{PC: pc, Msg: fmt.Sprintf("store to %#x", addr)}
				break loop
			}
			w := addr >> 3
			pi := w >> (pageShift - 3)
			if pi == mem.lastIdx && mem.lastPage != nil {
				mem.lastPage[w&(pageWords-1)] = r[m.rs2&regIdxMask]
			} else {
				mem.Store(addr, r[m.rs2&regIdxMask])
			}
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
