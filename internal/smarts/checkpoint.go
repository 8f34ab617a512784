package smarts

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/sim"
)

// Warm-state checkpoints. A sampled run spends almost all of its work on
// functional warming: with the paper's 1000/1000 sampler only ~0.1% of
// instructions are simulated in detail, yet every measurement of the same
// binary re-executes and re-warms the whole program. The warm state at each
// detailed-region boundary, however, is a pure function of the committed
// trace (program-determined) and the configuration's WarmGeometry —
// latencies, issue width and window size change timing, never which cache
// line or predictor counter flips. So one full run per (program, sampler,
// geometry) suffices: checkpoint the warm state and the trace slice of
// every detailed region, and any retry or nearby-configuration measurement
// replays just the detailed regions (warmup + window) against restored warm
// state, skipping the functional gaps entirely. The replay reuses the same
// sampleState.feedChunk, so its windows are bit-for-bit the windows a full
// rewarming run would produce; only Result.FunctionalInstrs differs, and
// that difference is the speedup.

// regionCheckpoint is one detailed region: the sampler phase and warm state
// at region entry, plus the committed-trace slice the region feeds.
type regionCheckpoint struct {
	phase int64
	warm  *sim.WarmState
	ents  []sim.TraceEntry
}

// CheckpointSet is the complete warm-state checkpoint of one (program,
// sampler, warm-geometry) triple: everything needed to reproduce the full
// run's sampled estimate under any configuration sharing the geometry.
type CheckpointSet struct {
	dec     *sim.DecodedProgram
	sampler Sampler
	geom    sim.WarmGeometry
	regions []regionCheckpoint
	instrs  int64
	exit    int64
}

// Replay reproduces the sampled estimate for cfg from the checkpoints
// alone: for each detailed region it restores the warm state into a fresh
// timing context and re-feeds the recorded trace slice through the same
// feedChunk a full run drives. cfg must share the set's WarmGeometry (the
// store's key guarantees it). The returned Result is bit-for-bit identical
// to a full rewarming Run except FunctionalInstrs, which counts only the
// replayed instructions.
func (cs *CheckpointSet) Replay(cfg sim.Config) *Result {
	state := newSampleState(cs.sampler, cfg, cs.dec)
	var fed int64
	for ri := range cs.regions {
		rg := &cs.regions[ri]
		state.cpu.RestoreWarm(rg.warm)
		state.phase = rg.phase
		state.feedChunk(rg.ents)
		// Close a window truncated by program end and leave detail, so the
		// next region starts from a fresh pipeline.
		state.flush()
		fed += int64(len(rg.ents))
	}
	res, ok := state.result(cs.instrs, cs.exit)
	if !ok {
		// Unreachable: a set is only stored when the build run produced
		// windows. Kept as a defensive nil guard.
		return nil
	}
	res.FunctionalInstrs = fed
	return res
}

// buildCheckpoints runs the program once with full functional warming —
// exactly Run's drive — with the sampling state recording a warm snapshot
// at every detailed region entry and the region's trace entries. It returns
// the run's Result and the captured set; the set is nil when the program
// was too short to produce any window (the Result is then the exact
// full-detail one, like Run's).
func buildCheckpoints(prog *isa.Program, cfg sim.Config, s Sampler, maxInstrs int64) (*Result, *CheckpointSet, error) {
	set := &CheckpointSet{sampler: s, geom: cfg.WarmGeometry()}
	res, err := drive(prog, cfg, s, maxInstrs, set)
	if err != nil {
		return nil, nil, err
	}
	if res.Windows == 0 {
		set = nil
	}
	return res, set, nil
}

// storeKey identifies a checkpoint set: program content, sampler, warm
// geometry and budget (a replay must never report an estimate a direct run
// would have rejected as over budget).
type storeKey struct {
	fp        uint64
	sampler   Sampler
	geom      sim.WarmGeometry
	maxInstrs int64
}

// fingerprint content-hashes a program: instructions, entry point and
// initialized data. Programs with equal fingerprints produce identical
// committed traces.
func fingerprint(p *isa.Program) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(p.Entry))
	w(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w(uint64(in.Op)<<32 | uint64(in.Rd)<<16 | uint64(in.Rs1)<<8 | uint64(in.Rs2))
		w(uint64(in.Imm))
		w(uint64(in.Target))
	}
	for _, di := range p.Init {
		w(di.Addr)
		w(uint64(di.Val))
	}
	return h.Sum64()
}

// StoreStats is a snapshot of a Store's counters.
type StoreStats struct {
	Hits      int64 // RunCheckpointed calls served by replay
	Misses    int64 // calls that built a checkpoint set, or ran in full
	Entries   int64 // sets currently resident, builds in flight included
	Evictions int64 // sets dropped by the LRU cap
}

// Store is a bounded cache of checkpoint sets under par.Cache's rule, safe
// for concurrent use: one build per key, callers that arrive meanwhile join
// it, LRU beyond capacity. Sets are large (warm snapshots per region), so
// the cap is small by default; a farm measuring one binary under many
// nearby configurations needs only one resident set to serve the whole
// sweep.
type Store struct {
	sets         *par.Cache[storeKey, *CheckpointSet]
	hits, misses atomic.Int64
}

// DefaultStoreCap bounds a NewStore(0) store.
const DefaultStoreCap = 4

// NewStore builds a checkpoint store holding at most capacity sets
// (capacity <= 0 selects DefaultStoreCap).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	return &Store{sets: par.NewCache[storeKey, *CheckpointSet](capacity)}
}

// Stats snapshots the store's counters.
func (st *Store) Stats() StoreStats {
	cs := st.sets.Stats()
	return StoreStats{Hits: st.hits.Load(), Misses: st.misses.Load(), Entries: int64(cs.Len), Evictions: cs.Evictions}
}

// errNoSet fails the build of a program too short for one sampling period,
// so that par.Cache keeps no entry for it.
var errNoSet = errors.New("smarts: no detailed region to checkpoint")

// RunCheckpointed is Run backed by a warm-state checkpoint store: a hit
// (same program, sampler, warm geometry and budget — any latencies/widths)
// replays only the detailed regions; a miss runs in full and leaves a
// checkpoint set behind. A caller that arrives while the set is being built
// waits for it and replays. Results are bit-for-bit identical to Run either
// way, except FunctionalInstrs, which reports the work actually done. The
// second return reports whether the result was served by replay. A nil
// store degrades to Run.
func RunCheckpointed(store *Store, prog *isa.Program, cfg sim.Config, s Sampler, maxInstrs int64) (*Result, bool, error) {
	if store == nil {
		res, err := Run(prog, cfg, s, maxInstrs)
		return res, false, err
	}
	if err := s.validate(); err != nil {
		return nil, false, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	key := storeKey{fp: fingerprint(prog), sampler: s, geom: cfg.WarmGeometry(), maxInstrs: maxInstrs}
	var own *Result // this caller's full run, set only if it built
	set, _, err := store.sets.Get(context.Background(), key, func() (*CheckpointSet, error) {
		res, set, err := buildCheckpoints(prog, cfg, s, maxInstrs)
		own = res
		if err == nil && set == nil {
			err = errNoSet
		}
		return set, err
	})
	switch {
	case err != nil && !errors.Is(err, errNoSet):
		return nil, false, err
	case own != nil:
		store.misses.Add(1)
		return own, false, nil
	case err != nil: // joined a build that left no set
		store.misses.Add(1)
		res, err := Run(prog, cfg, s, maxInstrs)
		return res, false, err
	}
	store.hits.Add(1)
	return set.Replay(cfg), true, nil
}
