package sim

import (
	"fmt"

	"repro/internal/isa"
)

// Simulation engines. Feed is the original Step+FeedDecoded reference loop,
// Fused the chunk producer and chunk timing kernel composed in one goroutine
// (runFused), BB the basic-block translated engine layered on top of the
// fused slow path — the Simulate default and the tier the farm runs.
const (
	EngineFeed  = "feed"
	EngineFused = "fused"
	EngineBB    = "bb"
)

// Engines lists the selectable simulation engines.
func Engines() []string { return []string{EngineFeed, EngineFused, EngineBB} }

// EngineStats reports translation-tier bookkeeping for one run. It is kept
// out of Stats on purpose: Stats is the architectural result, compared
// bit-for-bit across engines, while EngineStats describes how the run was
// executed.
type EngineStats struct {
	BlocksTranslated int64 // static basic blocks in the program's translation
	TranslatedInstrs int64 // dynamic instructions retired through translated blocks
	SlowPathEntries  int64 // falls back to the fused loop (budget tail, non-leader target)
}

// SimulateEngine is Simulate with an explicit engine selection. All engines
// produce bit-for-bit identical Stats; the golden tests pin them together.
func SimulateEngine(prog *isa.Program, cfg Config, maxInstrs int64, engine string) (Stats, EngineStats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, EngineStats{}, err
	}
	exe := NewExecutor(prog)
	cpu := NewCPU(cfg)
	var es EngineStats
	if err := runEngine(exe, cpu, maxInstrs, engine, &es); err != nil {
		return Stats{}, es, err
	}
	st := cpu.Stats()
	st.ExitValue = exe.Regs[isa.RegRV]
	return st, es, nil
}

// runEngine drives exe through cpu on the named engine. After a fault every
// engine returns the same error and leaves exe.PC and exe.Count at the
// faulting instruction; how much of the executed prefix cpu has timed by then
// is the engine's own business, and callers discard its Stats.
func runEngine(exe *Executor, cpu *CPU, maxInstrs int64, engine string, es *EngineStats) error {
	switch engine {
	case EngineFeed:
		return runFeed(exe, cpu, maxInstrs)
	case EngineFused:
		return runFused(exe, cpu, maxInstrs)
	case EngineBB:
		return runTranslated(exe, cpu, maxInstrs, es)
	}
	return fmt.Errorf("sim: unknown engine %q", engine)
}

// runFeed is the reference two-call path: one Step and one FeedDecoded per
// dynamic instruction.
func runFeed(exe *Executor, cpu *CPU, maxInstrs int64) error {
	dec := exe.Decoded()
	for !exe.Halted {
		if exe.Count >= maxInstrs {
			return budgetFault(exe.PC, maxInstrs)
		}
		entry, ok, err := exe.Step()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		cpu.FeedDecoded(dec, entry)
	}
	return nil
}

// runTranslated executes through the basic-block translation: the per-block
// dispatch amortizes the budget, bounds and halt checks over whole blocks,
// and the interior loop runs re-encoded tuops whose kinds bake in at
// translation time what the fused loop re-derives per instruction (dest
// writes, dataflow sources, FU class, unpipelined occupancy, flag tests,
// and the icache-line crossing pattern — InstrBytes is half a cache line,
// so sequential flow crosses lines exactly at even pcs).
//
// Bit-for-bit contract: every architectural and Stats-visible effect
// happens in the same order with the same values as runFused. The running
// `cycles` max is deferred to the flush (exact: lastCommitCycle is
// non-decreasing and every per-instruction commit equals it), and
// instruction counters are batched per block. The slow-path fallback is
// one-way: on a budget tail (fewer instructions left than the next block)
// or a control transfer into an untranslated pc (a return landing on a
// hand-crafted RegRA), state is flushed and the remainder of the run is
// delegated to runFused. After a non-budget fault the returned error and
// architectural state match runFused; the partial timing state of the
// faulting instruction may differ and is discarded by every caller.
func runTranslated(exe *Executor, cpu *CPU, maxInstrs int64, es *EngineStats) error {
	tr := exe.dec.translation()
	meta := exe.dec.meta
	blocks := tr.blocks
	blockOf := tr.blockOf
	uops := tr.uops
	es.BlocksTranslated = int64(len(blocks))

	r := &exe.Regs
	mem := exe.Mem
	pc := exe.PC
	count := exe.Count
	count0 := count
	halted := exe.Halted

	issueWidth := cpu.cfg.IssueWidth
	dlat := int64(cpu.cfg.DCacheLat)
	l2lat := int64(cpu.cfg.L2Lat)
	memlat := int64(cpu.cfg.MemLat)
	fetchCycle := cpu.fetchCycle
	fetchCount := cpu.fetchCount
	lastLine := cpu.lastLine
	ruuPos := cpu.ruuPos
	busFree := cpu.busFree
	lastCommitCycle := cpu.lastCommitCycle
	commitsThisCyc := cpu.commitsThisCyc
	energy := cpu.stats.Energy
	cycles := cpu.stats.Cycles
	instructions := cpu.stats.Instructions
	branchCount := cpu.stats.Branches
	mispredicts := cpu.stats.Mispredicts
	regReady := &cpu.regReady
	commitRing := cpu.commitRing
	issueRing := &cpu.issueRing
	il1, dl1, l2 := cpu.IL1, cpu.DL1, cpu.L2
	bp := cpu.BP

	var fuState [isa.NumFUClasses][fuMaxUnits]int64
	var fuLen [isa.NumFUClasses]int
	for cl := range cpu.fu {
		n := len(cpu.fu[cl])
		if n > fuMaxUnits {
			n = fuMaxUnits // unreachable: documented for the bounds checker
		}
		fuLen[cl] = n
		copy(fuState[cl][:], cpu.fu[cl])
	}
	fuAlu := fuState[isa.FUIntALU][:fuLen[isa.FUIntALU]]
	fuMem := fuState[isa.FUMem][:fuLen[isa.FUMem]]
	aluLen := len(fuAlu)
	memLen := len(fuMem)

	il1Valid, il1Tags, il1Mask := il1.valid, il1.tags, il1.setMask
	il1Acc := il1.Accesses
	dl1Valid, dl1Tags, dl1Mru := dl1.valid, dl1.tags, dl1.mru
	dl1Mask, dl1Assoc := dl1.setMask, dl1.assoc
	dl1Acc := dl1.Accesses

	var err error
	slow := false

	// Declared ahead of the gotos below (Go forbids jumping a declaration).
	var (
		u                    *tuop
		i, nIn, best         int
		p, tpc               int32
		dispatch, ready, lat int64
		occupy, issue, done  int64
		commit, stall, when  int64
		start, v             int64
		line0, addr, dline   uint64
		dest                 uint8
		storeLike            bool
	)

outer:
	for !halted {
		if count >= maxInstrs {
			err = budgetFault(pc, maxInstrs)
			break
		}
		if uint32(pc) >= uint32(len(blockOf)) { // also catches negative PCs
			err = &ErrFault{PC: pc, Msg: "pc out of range"}
			break
		}
		bi := blockOf[pc]
		if bi < 0 {
			slow = true
			break
		}
		b := &blocks[bi]
		if count+int64(b.n) > maxInstrs {
			slow = true
			break
		}
		es.TranslatedInstrs += int64(b.n)
		nIn = int(b.n)
		if b.hasTerm {
			nIn--
		}
		ops := uops[b.off : b.off+uint32(nIn)]

		// Entry fetch check for the block's first instruction (interior or
		// terminator): the previous instruction was a control transfer, so
		// the line comparison is dynamic.
		p = b.start
		if l := uint64(p)>>1 + 1; l != lastLine {
			lastLine = l
			energy += energyIL1
			il1Acc++
			line0 = uint64(p) >> 1
			set := int(line0 & il1Mask)
			if !(il1Valid[set] && il1Tags[set] == line0) && !il1.accessSlow(line0, set, set) {
				energy += energyL2
				if l2.Access(uint64(p) * isa.InstrBytes) {
					stall = l2lat
				} else {
					energy += energyDRAM
					when = fetchCycle + l2lat
					start = when
					if busFree > start {
						start = busFree
					}
					busFree = start + busOccupancy
					stall = l2lat + memlat + (start - when)
				}
				fetchCycle += stall
				fetchCount = 0
			}
		}

		for i = 0; i < nIn; i++ {
			p = b.start + int32(i)
			// Sequential flow crosses an icache line exactly at even pcs
			// (InstrBytes == 32, lines are 64 bytes); position 0 was handled
			// dynamically above.
			if i != 0 && p&1 == 0 {
				lastLine = uint64(p)>>1 + 1
				energy += energyIL1
				il1Acc++
				line0 = uint64(p) >> 1
				set := int(line0 & il1Mask)
				if !(il1Valid[set] && il1Tags[set] == line0) && !il1.accessSlow(line0, set, set) {
					energy += energyL2
					if l2.Access(uint64(p) * isa.InstrBytes) {
						stall = l2lat
					} else {
						energy += energyDRAM
						when = fetchCycle + l2lat
						start = when
						if busFree > start {
							start = busFree
						}
						busFree = start + busOccupancy
						stall = l2lat + memlat + (start - when)
					}
					fetchCycle += stall
					fetchCount = 0
				}
			}

			// Shared timing front: fetch grouping and dispatch.
			if fetchCount >= issueWidth {
				fetchCycle++
				fetchCount = 0
			}
			dispatch = fetchCycle
			if slotFree := commitRing[ruuPos]; slotFree > dispatch {
				dispatch = slotFree
				fetchCycle = dispatch
				fetchCount = 0
			}
			fetchCount++
			ready = dispatch + 1

			u = &ops[i]
			switch u.tk {
			case tkAdd:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] + r[u.rs2&regIdxMask]
				goto alu2
			case tkSub:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] - r[u.rs2&regIdxMask]
				goto alu2
			case tkAnd:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] & r[u.rs2&regIdxMask]
				goto alu2
			case tkOr:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] | r[u.rs2&regIdxMask]
				goto alu2
			case tkXor:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] ^ r[u.rs2&regIdxMask]
				goto alu2
			case tkShl:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] << (uint64(r[u.rs2&regIdxMask]) & 63)
				goto alu2
			case tkShr:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] >> (uint64(r[u.rs2&regIdxMask]) & 63)
				goto alu2
			case tkSlt:
				r[u.rd&regIdxMask] = b2i(r[u.rs1&regIdxMask] < r[u.rs2&regIdxMask])
				goto alu2
			case tkSle:
				r[u.rd&regIdxMask] = b2i(r[u.rs1&regIdxMask] <= r[u.rs2&regIdxMask])
				goto alu2
			case tkSeq:
				r[u.rd&regIdxMask] = b2i(r[u.rs1&regIdxMask] == r[u.rs2&regIdxMask])
				goto alu2
			case tkSne:
				r[u.rd&regIdxMask] = b2i(r[u.rs1&regIdxMask] != r[u.rs2&regIdxMask])
				goto alu2
			case tkAddi:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] + u.imm
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				goto aluD
			case tkLui:
				r[u.rd&regIdxMask] = u.imm
				goto aluD
			case tkMul:
				r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] * r[u.rs2&regIdxMask]
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				occupy = 1
				goto mulTail
			case tkDiv:
				if r[u.rs2&regIdxMask] == 0 {
					r[u.rd&regIdxMask] = 0
				} else {
					r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] / r[u.rs2&regIdxMask]
				}
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				occupy = u.lat
				goto mulTail
			case tkRem:
				if r[u.rs2&regIdxMask] == 0 {
					r[u.rd&regIdxMask] = 0
				} else {
					r[u.rd&regIdxMask] = r[u.rs1&regIdxMask] % r[u.rs2&regIdxMask]
				}
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				occupy = u.lat
				goto mulTail
			case tkLoad:
				addr = uint64(r[u.rs1&regIdxMask] + u.imm)
				if addr < minValidAddr {
					p = b.start + int32(i)
					err = &ErrFault{PC: p, Msg: fmt.Sprintf("load from %#x", addr)}
					goto fault
				}
				if w := addr >> 3; w>>(pageShift-3) == mem.lastIdx && mem.lastPage != nil {
					r[u.rd&regIdxMask] = mem.lastPage[w&(pageWords-1)]
				} else {
					r[u.rd&regIdxMask] = mem.Load(addr)
				}
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				dest = u.rd
				storeLike = false
				goto memTail
			case tkLoadZ:
				addr = uint64(r[u.rs1&regIdxMask] + u.imm)
				if addr < minValidAddr {
					p = b.start + int32(i)
					err = &ErrFault{PC: p, Msg: fmt.Sprintf("load from %#x", addr)}
					goto fault
				}
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				dest = 0
				storeLike = false
				goto memTail
			case tkStore:
				addr = uint64(r[u.rs1&regIdxMask] + u.imm)
				if addr < minValidAddr {
					p = b.start + int32(i)
					err = &ErrFault{PC: p, Msg: fmt.Sprintf("store to %#x", addr)}
					goto fault
				}
				if w := addr >> 3; w>>(pageShift-3) == mem.lastIdx && mem.lastPage != nil {
					mem.lastPage[w&(pageWords-1)] = r[u.rs2&regIdxMask]
				} else {
					mem.Store(addr, r[u.rs2&regIdxMask])
				}
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				dest = 0
				storeLike = true
				goto memTail
			case tkPrefetch:
				addr = uint64(r[u.rs1&regIdxMask] + u.imm) // non-binding: no fault
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				dest = 0
				storeLike = true
				goto memTail
			case tkMulZ:
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				occupy = 1
				goto mulZTail
			case tkDivZ:
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				occupy = u.lat
				goto mulZTail
			default: // tkAluZ
				if v = regReady[u.rs1&regIdxMask]; v > ready {
					ready = v
				}
				if v = regReady[u.rs2&regIdxMask]; v > ready {
					ready = v
				}
				goto aluZTail
			}

		alu2: // pipelined two-source IntALU op writing u.rd
			if v = regReady[u.rs1&regIdxMask]; v > ready {
				ready = v
			}
			if v = regReady[u.rs2&regIdxMask]; v > ready {
				ready = v
			}

		aluD: // pipelined IntALU op writing u.rd, sources already folded
			best = 0
			switch aluLen {
			case 1:
			case 2:
				if fuAlu[1] < fuAlu[0] {
					best = 1
				}
			case 4:
				a, b := 0, 2
				if fuAlu[1] < fuAlu[0] {
					a = 1
				}
				if fuAlu[3] < fuAlu[2] {
					b = 3
				}
				if fuAlu[b] < fuAlu[a] {
					best = b
				} else {
					best = a
				}
			default:
				for q := 1; q < aluLen; q++ {
					if fuAlu[q] < fuAlu[best] {
						best = q
					}
				}
			}
			if fuAlu[best] > ready {
				ready = fuAlu[best]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			fuAlu[best] = issue + 1
			done = issue + u.lat
			energy += u.energy
			regReady[u.rd&regIdxMask] = done
			goto commitTail

		aluZTail: // pipelined IntALU op with no architectural write
			best = 0
			switch aluLen {
			case 1:
			case 2:
				if fuAlu[1] < fuAlu[0] {
					best = 1
				}
			case 4:
				a, b := 0, 2
				if fuAlu[1] < fuAlu[0] {
					a = 1
				}
				if fuAlu[3] < fuAlu[2] {
					b = 3
				}
				if fuAlu[b] < fuAlu[a] {
					best = b
				} else {
					best = a
				}
			default:
				for q := 1; q < aluLen; q++ {
					if fuAlu[q] < fuAlu[best] {
						best = q
					}
				}
			}
			if fuAlu[best] > ready {
				ready = fuAlu[best]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			fuAlu[best] = issue + 1
			done = issue + u.lat
			energy += u.energy
			goto commitTail

		mulTail: // IntMul class (single unit) writing u.rd, occupy preset
			if fuState[isa.FUIntMul][0] > ready {
				ready = fuState[isa.FUIntMul][0]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			fuState[isa.FUIntMul][0] = issue + occupy
			done = issue + u.lat
			energy += u.energy
			regReady[u.rd&regIdxMask] = done
			goto commitTail

		mulZTail: // IntMul class, no architectural write
			if fuState[isa.FUIntMul][0] > ready {
				ready = fuState[isa.FUIntMul][0]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			fuState[isa.FUIntMul][0] = issue + occupy
			done = issue + u.lat
			energy += u.energy
			goto commitTail

		memTail: // FUMem class: hierarchy latency, addr/dest/storeLike preset
			best = 0
			switch memLen {
			case 1:
			case 2:
				if fuMem[1] < fuMem[0] {
					best = 1
				}
			case 4:
				a, b := 0, 2
				if fuMem[1] < fuMem[0] {
					a = 1
				}
				if fuMem[3] < fuMem[2] {
					b = 3
				}
				if fuMem[b] < fuMem[a] {
					best = b
				} else {
					best = a
				}
			default:
				for q := 1; q < memLen; q++ {
					if fuMem[q] < fuMem[best] {
						best = q
					}
				}
			}
			if fuMem[best] > ready {
				ready = fuMem[best]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			fuMem[best] = issue + 1
			energy += energyDL1
			dl1Acc++
			dline = addr >> 6
			{
				dset := int(dline & dl1Mask)
				based := dset * dl1Assoc
				mw := based + int(dl1Mru[dset])
				if (dl1Valid[mw] && dl1Tags[mw] == dline) || dl1.accessSlow(dline, dset, based) {
					lat = dlat
				} else {
					energy += energyL2
					if l2.Access(addr) {
						lat = dlat + l2lat
					} else {
						energy += energyDRAM
						when = issue + dlat + l2lat
						start = when
						if busFree > start {
							start = busFree
						}
						busFree = start + busOccupancy
						lat = dlat + l2lat + memlat + (start - when)
					}
				}
			}
			if storeLike {
				lat = 1
			}
			done = issue + lat
			energy += u.energy
			if dest != isa.RegZero {
				regReady[dest&regIdxMask] = done
			}
			goto commitTail

		commitTail:
			commit = done + 1
			if commit <= lastCommitCycle {
				commit = lastCommitCycle
				commitsThisCyc++
				if commitsThisCyc > issueWidth {
					commit++
					commitsThisCyc = 1
				}
			} else {
				commitsThisCyc = 1
			}
			lastCommitCycle = commit
			commitRing[ruuPos] = commit
			ruuPos++
			if ruuPos == len(commitRing) {
				ruuPos = 0
			}
		}
		count += int64(nIn)
		instructions += int64(nIn)

		if !b.hasTerm {
			pc = b.start + b.n
			continue
		}

		// --- Terminator: control transfer or halt, general path ---
		tpc = b.start + b.n - 1
		{
			m := &meta[tpc]
			nextPC := tpc + 1
			taken := false
			switch m.op {
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
				r[isa.RegRA] = int64(tpc + 1)
				nextPC = m.target
			case isa.OpRet:
				nextPC = int32(r[isa.RegRA])
			case isa.OpHalt:
				halted = true
				exe.Halted = true
				nextPC = tpc
			}
			r[isa.RegZero] = 0 // Call writes RA; r0 stays hardwired

			instructions++
			if nIn > 0 {
				// Sequential into the terminator: static parity rule.
				if tpc&1 == 0 {
					lastLine = uint64(tpc)>>1 + 1
					energy += energyIL1
					il1Acc++
					line0 = uint64(tpc) >> 1
					set := int(line0 & il1Mask)
					if !(il1Valid[set] && il1Tags[set] == line0) && !il1.accessSlow(line0, set, set) {
						energy += energyL2
						if l2.Access(uint64(tpc) * isa.InstrBytes) {
							stall = l2lat
						} else {
							energy += energyDRAM
							when = fetchCycle + l2lat
							start = when
							if busFree > start {
								start = busFree
							}
							busFree = start + busOccupancy
							stall = l2lat + memlat + (start - when)
						}
						fetchCycle += stall
						fetchCount = 0
					}
				}
			}
			if fetchCount >= issueWidth {
				fetchCycle++
				fetchCount = 0
			}
			dispatch = fetchCycle
			if slotFree := commitRing[ruuPos]; slotFree > dispatch {
				dispatch = slotFree
				fetchCycle = dispatch
				fetchCount = 0
			}
			fetchCount++
			ready = dispatch + 1
			if v = regReady[m.src1&regIdxMask]; v > ready {
				ready = v
			}
			if v = regReady[m.src2&regIdxMask]; v > ready {
				ready = v
			}
			units := fuState[m.fu][:fuLen[m.fu]]
			best = 0
			for q := 1; q < len(units); q++ {
				if units[q] < units[best] {
					best = q
				}
			}
			if units[best] > ready {
				ready = units[best]
			}
			issue = ready
			for {
				slot := issue & (issueRingSize - 1)
				rv := issueRing[slot]
				if rv>>issueCountBits != issue {
					issueRing[slot] = issue<<issueCountBits | 1
					break
				}
				if int(rv&issueCountMask) < issueWidth {
					issueRing[slot] = rv + 1
					break
				}
				issue++
			}
			units[best] = issue + 1 // terminators are never unpipelined
			done = issue + m.lat    // and never memory ops
			energy += m.energy
			if m.dest != isa.RegZero {
				regReady[m.dest&regIdxMask] = done
			}
			if m.flags&flagBranch != 0 {
				branchCount++
				correct := bp.Update(tpc, taken)
				if !correct {
					mispredicts++
					energy += energyMispredict
					redirect := done + redirectPenalty
					if redirect > fetchCycle {
						fetchCycle = redirect
					}
					fetchCount = 0
				} else if taken {
					fetchCount = issueWidth
				}
			} else if m.flags&flagControl != 0 {
				fetchCount = issueWidth
			}
			commit = done + 1
			if commit <= lastCommitCycle {
				commit = lastCommitCycle
				commitsThisCyc++
				if commitsThisCyc > issueWidth {
					commit++
					commitsThisCyc = 1
				}
			} else {
				commitsThisCyc = 1
			}
			lastCommitCycle = commit
			commitRing[ruuPos] = commit
			ruuPos++
			if ruuPos == len(commitRing) {
				ruuPos = 0
			}
			count++
			pc = nextPC
		}
		continue

	fault:
		// Mid-block fault: i instructions of this block completed and pc
		// stops at the faulting one, as in every other engine.
		pc = p
		count += int64(i)
		instructions += int64(i)
		es.TranslatedInstrs += int64(i) - int64(b.n)
		break outer
	}

	exe.PC = pc
	exe.Count = count
	cpu.fetchCycle = fetchCycle
	cpu.fetchCount = fetchCount
	cpu.lastLine = lastLine
	cpu.ruuPos = ruuPos
	cpu.busFree = busFree
	cpu.lastCommitCycle = lastCommitCycle
	cpu.commitsThisCyc = commitsThisCyc
	cpu.stats.Energy = energy
	if lastCommitCycle > cycles {
		cycles = lastCommitCycle // deferred running max, exact by monotonicity
	}
	cpu.stats.Cycles = cycles
	cpu.stats.Instructions = instructions
	cpu.stats.Branches = branchCount
	cpu.stats.Mispredicts = mispredicts
	cpu.seq += count - count0 // one retirement per executed instruction
	il1.Accesses = il1Acc
	dl1.Accesses = dl1Acc
	for cl := range cpu.fu {
		copy(cpu.fu[cl], fuState[cl][:fuLen[cl]])
	}
	if slow {
		es.SlowPathEntries++
		return runFused(exe, cpu, maxInstrs)
	}
	return err
}
