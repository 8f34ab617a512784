package sim

// Warm-state snapshots. The functionally warmed microarchitectural state —
// cache and branch-predictor contents — evolves identically for every
// configuration that shares the same "warm geometry" (capacities,
// associativities, predictor size): warming and detailed execution both
// touch the hierarchy with the same access stream regardless of latencies,
// issue width or window size, and hits versus misses change timing but
// never which state transition happens. That determinism is what makes a
// snapshot taken under one configuration restorable under another, and is
// the foundation of the SMARTS warm-state checkpoints in package smarts.

// cacheLine is one valid line in a CacheState snapshot.
type cacheLine struct {
	idx uint32 // way index into the cache's flat tags/lru arrays
	tag uint64 // as Cache.tags stores it
	lru uint8
}

// CacheState is a compact snapshot of a Cache's contents: valid lines only
// (a warming run fills large caches slowly, so sparse storage is usually
// far smaller than the dense arrays), plus the per-set MRU table. Counters
// are not captured; they are observational, not behavioral.
type CacheState struct {
	sets, assoc int
	lines       []cacheLine
	mru         []uint8
}

// Snapshot captures the cache's current contents.
func (c *Cache) Snapshot() CacheState {
	st := CacheState{sets: c.sets, assoc: c.assoc, mru: append([]uint8(nil), c.mru...)}
	for i, tag := range c.tags {
		if tag != 0 {
			st.lines = append(st.lines, cacheLine{idx: uint32(i), tag: tag, lru: c.lru[i]})
		}
	}
	return st
}

// Restore overwrites the cache's contents with a snapshot taken from a
// cache of identical geometry; counters are left untouched. Panics on a
// geometry mismatch — callers key snapshots by WarmGeometry, so a mismatch
// is a programming error, not an input error.
func (c *Cache) Restore(st CacheState) {
	if st.sets != c.sets || st.assoc != c.assoc {
		panic("sim: cache snapshot geometry mismatch")
	}
	clear(c.tags)
	clear(c.lru)
	copy(c.mru, st.mru)
	for _, ln := range st.lines {
		c.tags[ln.idx] = ln.tag
		c.lru[ln.idx] = ln.lru
	}
}

// BPredState is a snapshot of a BPred's tables and global history.
type BPredState struct {
	bimodal, gshare, chooser []uint8
	history                  uint32
}

// Snapshot captures the predictor's current training state.
func (p *BPred) Snapshot() BPredState {
	return BPredState{
		bimodal: append([]uint8(nil), p.bimodal...),
		gshare:  append([]uint8(nil), p.gshare...),
		chooser: append([]uint8(nil), p.chooser...),
		history: p.history,
	}
}

// Restore overwrites the predictor's training state; counters are left
// untouched. Panics on a size mismatch.
func (p *BPred) Restore(st BPredState) {
	if len(st.bimodal) != len(p.bimodal) {
		panic("sim: predictor snapshot size mismatch")
	}
	copy(p.bimodal, st.bimodal)
	copy(p.gshare, st.gshare)
	copy(p.chooser, st.chooser)
	p.history = st.history
}

// WarmState bundles the warm-relevant microarchitectural state of a CPU:
// everything that survives a ResetTiming and carries information between
// SMARTS detailed windows. Pipeline state (register readiness, rings,
// functional units) is deliberately absent — SMARTS resets it at every
// window entry, so it never needs checkpointing.
type WarmState struct {
	IL1, DL1, L2 CacheState
	BP           BPredState
}

// SnapshotWarm captures the CPU's warm state.
func (c *CPU) SnapshotWarm() *WarmState {
	return &WarmState{
		IL1: c.IL1.Snapshot(),
		DL1: c.DL1.Snapshot(),
		L2:  c.L2.Snapshot(),
		BP:  c.BP.Snapshot(),
	}
}

// RestoreWarm overwrites the CPU's warm state with a snapshot taken from a
// CPU whose configuration has the same WarmGeometry.
func (c *CPU) RestoreWarm(ws *WarmState) {
	c.IL1.Restore(ws.IL1)
	c.DL1.Restore(ws.DL1)
	c.L2.Restore(ws.L2)
	c.BP.Restore(ws.BP)
}

// WarmGeometry is the subset of Config that determines warm-state
// evolution. Two configurations with equal WarmGeometry produce bit-for-bit
// identical cache and predictor contents at every point of the same
// committed-instruction trace, however much their latencies, issue width or
// window size differ.
type WarmGeometry struct {
	ICacheKB    int
	DCacheKB    int
	DCacheAssoc int
	L2KB        int
	L2Assoc     int
	BPredSize   int
}

// WarmGeometry projects the configuration onto its warm-relevant fields.
func (c Config) WarmGeometry() WarmGeometry {
	return WarmGeometry{
		ICacheKB:    c.ICacheKB,
		DCacheKB:    c.DCacheKB,
		DCacheAssoc: c.DCacheAssoc,
		L2KB:        c.L2KB,
		L2Assoc:     c.L2Assoc,
		BPredSize:   c.BPredSize,
	}
}

// WarmChunk is SMARTS functional warming between detailed windows: it runs
// a chunk's instruction fetches and data accesses through the cache
// hierarchy and its branches through the predictor, and moves nothing else
// — no cycle, no instruction count, no energy. A chunk may be cut anywhere
// without changing the state it leaves.
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
