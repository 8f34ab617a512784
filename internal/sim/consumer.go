package sim

import "repro/internal/isa"

// FeedChunk is the chunk timing kernel: it drives the out-of-order timing
// model over one chunk of committed trace entries, reading each entry's
// recorded (PC, Addr, Taken) against the decoded table. Every hot scalar
// (fetch/commit cursors, bus state, energy, the running cycle count,
// functional-unit next-free times) is loaded into locals at chunk entry and
// flushed back at chunk exit, so the compiler keeps them in registers across
// the chunk and the load/flush cost amortizes over its length; a chunk may
// be cut anywhere, down to one entry, without changing a bit of the state
// it leaves. It is the only timing consumer behind runFused, SimulateMany
// and the detailed regions of package smarts; CPU.feed is the readable
// reference it is held bit-for-bit equal to (TestFusedMatchesFeed,
// TestSimulateManyMatchesSimulate, the goldens). It bypasses the Trace hook;
// the private CPUs of its callers never have one.
func (c *CPU) FeedChunk(dec *DecodedProgram, ents []TraceEntry) {
	meta := dec.meta

	// Timing-model hot scalars, flushed back at chunk exit.
	issueWidth := c.cfg.IssueWidth
	dlat := int64(c.cfg.DCacheLat)
	l2lat := int64(c.cfg.L2Lat)
	memlat := int64(c.cfg.MemLat)
	fetchCycle := c.fetchCycle
	fetchCount := c.fetchCount
	lastLine := c.lastLine
	ruuPos := c.ruuPos
	busFree := c.busFree
	lastCommitCycle := c.lastCommitCycle
	commitsThisCyc := c.commitsThisCyc
	energy := c.stats.Energy
	cycles := c.stats.Cycles
	instructions := c.stats.Instructions
	branchCount := c.stats.Branches
	mispredicts := c.stats.Mispredicts
	regReady := &c.regReady
	commitRing := c.commitRing
	issueRing := &c.issueRing
	il1, dl1, l2 := c.IL1, c.DL1, c.L2
	bp := c.BP

	// Functional-unit next-free times, copied to the stack: the per-class
	// slices in CPU cost a header load plus a pointer chase per instruction.
	var fuState [isa.NumFUClasses][fuMaxUnits]int64
	var fuLen [isa.NumFUClasses]int
	for cl := range c.fu {
		n := len(c.fu[cl])
		if n > fuMaxUnits {
			n = fuMaxUnits // unreachable: documented for the bounds checker
		}
		fuLen[cl] = n
		copy(fuState[cl][:], c.fu[cl])
	}

	// L1 probe state hoisted out of the Cache structs. The IL1 is
	// direct-mapped by construction (NewCPU), so its probe needs no MRU
	// indirection at all.
	il1Valid, il1Tags, il1Mask := il1.valid, il1.tags, il1.setMask
	il1Acc := il1.Accesses
	dl1Valid, dl1Tags, dl1Mru := dl1.valid, dl1.tags, dl1.mru
	dl1Mask, dl1Assoc := dl1.setMask, dl1.assoc
	dl1Acc := dl1.Accesses

	for i := range ents {
		e := &ents[i]
		pc := e.PC
		addr := e.Addr
		taken := e.Taken
		m := &meta[pc]

		instructions++

		// Fetch. The IL1 is direct-mapped: way 0 is the only (and thus MRU)
		// way, so the probe is two loads.
		if m.line != lastLine {
			lastLine = m.line
			energy += energyIL1
			il1Acc++
			line := m.pcByte >> 6
			set := int(line & il1Mask)
			if !(il1Valid[set] && il1Tags[set] == line) && !il1.accessSlow(line, set, set) {
				var stall int64
				energy += energyL2
				if l2.Access(m.pcByte) {
					stall = l2lat
				} else {
					energy += energyDRAM
					when := fetchCycle + l2lat
					start := when
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
		if fetchCount >= issueWidth {
			fetchCycle++
			fetchCount = 0
		}

		// Dispatch: need a free RUU slot.
		dispatch := fetchCycle
		if slotFree := commitRing[ruuPos]; slotFree > dispatch {
			dispatch = slotFree
			fetchCycle = dispatch
			fetchCount = 0
		}
		fetchCount++

		// Issue: operands, functional unit, issue bandwidth. regReady[RegZero]
		// is invariantly 0 (never written), so unused source slots read it
		// harmlessly and the RegZero guards disappear.
		ready := dispatch + 1
		if v := regReady[m.src1&regIdxMask]; v > ready {
			ready = v
		}
		if v := regReady[m.src2&regIdxMask]; v > ready {
			ready = v
		}
		units := fuState[m.fu][:fuLen[m.fu]]
		best := 0
		switch len(units) {
		case 1:
		case 2:
			if units[1] < units[0] {
				best = 1
			}
		case 4:
			// Tournament argmin, ties to the lower index — same pick as the
			// linear scan with a shorter dependency chain.
			a, b := 0, 2
			if units[1] < units[0] {
				a = 1
			}
			if units[3] < units[2] {
				b = 3
			}
			if units[b] < units[a] {
				best = b
			} else {
				best = a
			}
		default:
			for u := 1; u < len(units); u++ {
				if units[u] < units[best] {
					best = u
				}
			}
		}
		if units[best] > ready {
			ready = units[best]
		}
		issue := ready
		for {
			slot := issue & (issueRingSize - 1)
			v := issueRing[slot]
			if v>>issueCountBits != issue {
				issueRing[slot] = issue<<issueCountBits | 1
				break
			}
			if int(v&issueCountMask) < issueWidth {
				issueRing[slot] = v + 1
				break
			}
			issue++
		}
		occupy := int64(1)
		if m.flags&flagUnpipelined != 0 {
			occupy = m.lat
		}
		units[best] = issue + occupy

		// Execute latency.
		var lat int64
		if m.flags&(flagLoad|flagStoreLike) != 0 {
			energy += energyDL1
			dl1Acc++
			line := addr >> 6
			set := int(line & dl1Mask)
			based := set * dl1Assoc
			mw := based + int(dl1Mru[set])
			if (dl1Valid[mw] && dl1Tags[mw] == line) || dl1.accessSlow(line, set, based) {
				lat = dlat
			} else {
				energy += energyL2
				if l2.Access(addr) {
					lat = dlat + l2lat
				} else {
					energy += energyDRAM
					when := issue + dlat + l2lat
					start := when
					if busFree > start {
						start = busFree
					}
					busFree = start + busOccupancy
					lat = dlat + l2lat + memlat + (start - when)
				}
			}
			if m.flags&flagStoreLike != 0 {
				lat = 1 // fills the hierarchy; store buffer hides latency
			}
		} else {
			lat = m.lat
		}
		done := issue + lat
		energy += m.energy

		if m.dest != isa.RegZero {
			regReady[m.dest&regIdxMask] = done
		}

		// Control flow.
		if m.flags&flagBranch != 0 {
			branchCount++
			correct := bp.Update(pc, taken)
			if !correct {
				mispredicts++
				energy += energyMispredict
				redirect := done + redirectPenalty
				if redirect > fetchCycle {
					fetchCycle = redirect
				}
				fetchCount = 0
			} else if taken {
				// Correctly predicted taken: the fetch group still ends.
				fetchCount = issueWidth
			}
		} else if m.flags&flagControl != 0 {
			// Unconditional transfers: perfect target prediction, but the
			// fetch group ends.
			fetchCount = issueWidth
		}

		// Commit: in order, width per cycle. (done+1 <= lastCommitCycle is
		// exactly the case where the clamped commit cycle equals the last
		// one, so the two comparisons of the feed path fold into one.)
		commit := done + 1
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

		if commit > cycles {
			cycles = commit
		}
	}

	c.fetchCycle = fetchCycle
	c.fetchCount = fetchCount
	c.lastLine = lastLine
	c.ruuPos = ruuPos
	c.busFree = busFree
	c.lastCommitCycle = lastCommitCycle
	c.commitsThisCyc = commitsThisCyc
	c.stats.Energy = energy
	c.stats.Cycles = cycles
	c.stats.Instructions = instructions
	c.stats.Branches = branchCount
	c.stats.Mispredicts = mispredicts
	c.seq += int64(len(ents)) // one feed per trace entry
	il1.Accesses = il1Acc
	dl1.Accesses = dl1Acc
	for cl := range c.fu {
		copy(c.fu[cl], fuState[cl][:fuLen[cl]])
	}
}

// WarmChunk is SMARTS functional warming between detailed windows: it runs
// a chunk's instruction fetches and data accesses through the cache
// hierarchy and its branches through the predictor, and moves nothing else
// — no cycle, no instruction count, no energy. Like FeedChunk it may be cut
// anywhere.
func (c *CPU) WarmChunk(dec *DecodedProgram, ents []TraceEntry) {
	meta := dec.meta
	lastLine := c.lastLine
	for i := range ents {
		e := &ents[i]
		m := &meta[e.PC]
		if m.line != lastLine {
			lastLine = m.line
			if !c.IL1.Access(m.pcByte) {
				c.L2.Access(m.pcByte)
			}
		}
		if m.flags&(flagLoad|flagStoreLike) != 0 && !c.DL1.Access(e.Addr) {
			c.L2.Access(e.Addr)
		}
		if m.flags&flagBranch != 0 {
			c.BP.Update(e.PC, e.Taken)
		}
	}
	c.lastLine = lastLine
}
