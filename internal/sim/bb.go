package sim

import "repro/internal/isa"

// Translated-execution kinds. Each interior (non-control) instruction of a
// basic block is re-encoded at translation time into one tuop whose kind
// fuses the opcode with everything the fused engine otherwise discovers
// per-instruction at run time: whether the destination register is
// architecturally written (rd==0 results are discarded instead of written
// and re-cleared), which dataflow sources gate issue, the functional-unit
// class, and whether the op occupies its unit unpipelined. The discard
// kinds (tk*Z) are exact because regReady[RegZero] is invariantly zero and
// an ALU result written to r0 and immediately re-zeroed is a no-op.
const (
	tkAdd uint8 = iota
	tkSub
	tkAnd
	tkOr
	tkXor
	tkShl
	tkShr
	tkSlt
	tkSle
	tkSeq
	tkSne
	tkAddi
	tkLui
	tkMul
	tkDiv
	tkRem
	tkLoad
	tkStore
	tkPrefetch
	tkAluZ  // any discarded pipelined non-mem op (includes Nop)
	tkMulZ  // discarded multiply: FU class IntMul
	tkDivZ  // discarded divide/remainder: IntMul, unpipelined
	tkLoadZ // load to r0: faults and touches the hierarchy, no reg write
)

// tuop is the translated form of one interior instruction: half the size of
// an instrMeta record (two per cache line instead of one), with the icache
// line and pc dropped entirely — both are recomputed from the block-relative
// position, since InstrBytes is exactly half a cache line and interior flow
// is sequential.
type tuop struct {
	tk     uint8 // kind first: the dispatch load starts the indirect jump
	rd     uint8 // destination register (write kinds) — unused by tk*Z
	rs1    uint8 // first source (dataflow source for discard kinds)
	rs2    uint8 // second source (dataflow source for discard kinds)
	_      [4]uint8
	imm    int64
	energy float64
	lat    int64 // fixed execute latency; also the unpipelined occupancy
}

// bblock is one translated basic block: a maximal straight-line run of
// interior instructions, optionally closed by a control-transfer (or halt)
// terminator that is executed through the general path.
type bblock struct {
	start   int32  // pc of the first instruction
	n       int32  // instruction count including the terminator
	off     uint32 // offset of the interior tuops in translation.uops
	hasTerm bool   // last instruction is a control transfer or halt
}

// translation is the per-program basic-block index, built once per
// DecodedProgram (lazily, on first translated run) and shared read-only by
// any number of executors.
type translation struct {
	blocks  []bblock
	blockOf []int32 // per-pc: block index if pc is a block leader, else -1
	uops    []tuop
}

// isTermOp reports whether the instruction at meta index i ends a basic
// block: any PC redirect (branches, jumps, calls, returns) or halt.
func isTermOp(m *instrMeta) bool {
	return m.flags&(flagBranch|flagControl) != 0 || m.op == isa.OpHalt
}

// knownOp reports whether fillChunk has a case for the opcode; unknown
// opcodes are left untranslated so the slow path raises the exact fault.
func knownOp(op isa.Op) bool {
	return op <= isa.OpHalt
}

// translateUop re-encodes the interior instruction at meta index pc.
func translateUop(m *instrMeta) tuop {
	u := tuop{imm: m.imm, energy: m.energy, lat: m.lat, rd: m.rd, rs1: m.rs1, rs2: m.rs2}
	discard := m.dest == isa.RegZero
	switch m.op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne,
		isa.OpAddi, isa.OpLui, isa.OpMul, isa.OpDiv, isa.OpRem:
		if discard {
			// Result discarded: keep only the dataflow sources that gate
			// issue. ALU computes have no side effects (division by zero is
			// defined), so the compute itself is dropped.
			u.rs1, u.rs2 = m.src1, m.src2
			switch m.op {
			case isa.OpMul:
				u.tk = tkMulZ
			case isa.OpDiv, isa.OpRem:
				u.tk = tkDivZ
			default:
				u.tk = tkAluZ
			}
			return u
		}
		switch m.op {
		case isa.OpAdd:
			u.tk = tkAdd
		case isa.OpSub:
			u.tk = tkSub
		case isa.OpAnd:
			u.tk = tkAnd
		case isa.OpOr:
			u.tk = tkOr
		case isa.OpXor:
			u.tk = tkXor
		case isa.OpShl:
			u.tk = tkShl
		case isa.OpShr:
			u.tk = tkShr
		case isa.OpSlt:
			u.tk = tkSlt
		case isa.OpSle:
			u.tk = tkSle
		case isa.OpSeq:
			u.tk = tkSeq
		case isa.OpSne:
			u.tk = tkSne
		case isa.OpAddi:
			u.tk = tkAddi
		case isa.OpLui:
			u.tk = tkLui
		case isa.OpMul:
			u.tk = tkMul
		case isa.OpDiv:
			u.tk = tkDiv
		case isa.OpRem:
			u.tk = tkRem
		}
		return u
	case isa.OpLoad:
		if discard {
			u.tk = tkLoadZ
		} else {
			u.tk = tkLoad
		}
		return u
	case isa.OpStore:
		u.tk = tkStore
		return u
	case isa.OpPrefetch:
		u.tk = tkPrefetch
		return u
	default: // OpNop
		u.tk = tkAluZ
		u.rs1, u.rs2 = m.src1, m.src2
		return u
	}
}

// buildTranslation partitions the decoded program into basic blocks and
// translates every interior instruction. Leaders are the program entry,
// every control-transfer target, and the instruction after every
// terminator (branch fall-through and call-return sites). A control
// transfer landing on a non-leader pc (only possible by writing RegRA by
// hand) is handled by the slow-path fallback at dispatch time.
func buildTranslation(d *DecodedProgram) *translation {
	meta := d.meta
	n := len(meta)
	tr := &translation{blockOf: make([]int32, n)}
	for i := range tr.blockOf {
		tr.blockOf[i] = -1
	}
	if n == 0 {
		return tr
	}

	leader := make([]bool, n)
	mark := func(pc int32) {
		if uint32(pc) < uint32(n) {
			leader[pc] = true
		}
	}
	mark(d.Prog.Entry)
	for i := range meta {
		m := &meta[i]
		if !isTermOp(m) {
			continue
		}
		if m.flags&(flagBranch|flagControl) != 0 && m.op != isa.OpRet {
			mark(m.target)
		}
		mark(int32(i) + 1)
	}

	for l := 0; l < n; l++ {
		if !leader[l] || !knownOp(meta[l].op) {
			continue
		}
		start := int32(l)
		j := l
		for {
			if isTermOp(&meta[j]) {
				j++ // include the terminator
				break
			}
			if !knownOp(meta[j].op) {
				break // untranslatable: stop before it, slow path faults
			}
			if j+1 >= n || leader[j+1] || !knownOp(meta[j+1].op) {
				j++ // block ends by falling into a leader or program end
				break
			}
			j++
		}
		b := bblock{start: start, n: int32(j) - start, off: uint32(len(tr.uops))}
		nIn := int(b.n)
		if isTermOp(&meta[j-1]) {
			b.hasTerm = true
			nIn--
		}
		for k := 0; k < nIn; k++ {
			tr.uops = append(tr.uops, translateUop(&meta[l+k]))
		}
		tr.blockOf[start] = int32(len(tr.blocks))
		tr.blocks = append(tr.blocks, b)
	}
	return tr
}
