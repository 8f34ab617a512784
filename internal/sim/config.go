// Package sim implements the cycle-level performance simulator used to
// measure the response variable (execution time in cycles). It pairs a
// functional executor for the synthetic ISA with a trace-fed timing model of
// an out-of-order superscalar core: a register update unit (RUU), a combined
// branch predictor, per-class functional units scaled by issue width, split
// L1 caches, a unified L2 and a flat-latency DRAM — the eleven
// microarchitectural parameters of the paper's Table 2.
package sim

import "fmt"

// Config holds the microarchitectural parameters (paper Table 2).
//
// Cache sizes are nominal: NewCache rounds the set count down to a power of
// two, so a size/associativity combination with a non-power-of-two set
// count models the next smaller power-of-two capacity (see NewCache and
// Cache.SizeKB). Every level in the paper's design space is a power of two,
// where the rounding changes nothing.
type Config struct {
	IssueWidth  int // instructions fetched/issued/committed per cycle (2..4)
	BPredSize   int // entries in each table of the combined predictor (512..8192)
	RUUSize     int // register update unit entries (16..128)
	ICacheKB    int // L1 instruction cache size in KB (8..128)
	DCacheKB    int // L1 data cache size in KB (8..128)
	DCacheAssoc int // L1 data cache associativity (1..2)
	DCacheLat   int // L1 data cache hit latency in cycles (1..3)
	L2KB        int // unified L2 size in KB (256..8192)
	L2Assoc     int // L2 associativity (1..8)
	L2Lat       int // L2 hit latency in cycles (6..16)
	MemLat      int // DRAM access latency in cycles (50..150)
}

// DefaultConfig returns the paper's "typical" configuration (Table 5).
func DefaultConfig() Config {
	return Config{
		IssueWidth:  4,
		BPredSize:   2048,
		RUUSize:     64,
		ICacheKB:    32,
		DCacheKB:    32,
		DCacheAssoc: 1,
		DCacheLat:   2,
		L2KB:        1024,
		L2Assoc:     4,
		L2Lat:       10,
		MemLat:      100,
	}
}

// Constrained returns the paper's "constrained" configuration (Table 5).
func Constrained() Config {
	return Config{
		IssueWidth:  2,
		BPredSize:   512,
		RUUSize:     16,
		ICacheKB:    8,
		DCacheKB:    8,
		DCacheAssoc: 1,
		DCacheLat:   1,
		L2KB:        256,
		L2Assoc:     2,
		L2Lat:       6,
		MemLat:      50,
	}
}

// Aggressive returns the paper's "aggressive" configuration (Table 5).
func Aggressive() Config {
	return Config{
		IssueWidth:  4,
		BPredSize:   8192,
		RUUSize:     128,
		ICacheKB:    128,
		DCacheKB:    128,
		DCacheAssoc: 2,
		DCacheLat:   3,
		L2KB:        8192,
		L2Assoc:     8,
		L2Lat:       16,
		MemLat:      150,
	}
}

// Hard caps on the fields that size the model's allocations (cache arrays,
// predictor tables, the commit ring). They are safety limits, each at least
// 8× the largest value the repository uses, not Table 2's box: a config
// inside them allocates at most tens of megabytes.
const (
	maxCacheKB   = 1 << 16 // 64 MB; the box's largest L2 is 8 MB
	maxBPredSize = 1 << 16 // the box's largest predictor has 8192 entries
	maxRUUSize   = 1024    // the box's largest RUU has 128 entries
	maxAssoc     = 256     // Cache.lru and Cache.mru are uint8
)

// Validate checks that the configuration is self-consistent and that no
// field exceeds its hard cap. It does not check Table 2's box: sweeps may
// leave it.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth < 1 || c.IssueWidth > 8:
		return fmt.Errorf("sim: issue width %d out of range", c.IssueWidth)
	case c.RUUSize < 2 || c.RUUSize > maxRUUSize:
		return fmt.Errorf("sim: RUU size %d outside [2, %d]", c.RUUSize, maxRUUSize)
	case c.BPredSize < 2 || c.BPredSize > maxBPredSize || c.BPredSize&(c.BPredSize-1) != 0:
		return fmt.Errorf("sim: predictor size %d must be a power of two in [2, %d]", c.BPredSize, maxBPredSize)
	case c.ICacheKB < 1 || c.DCacheKB < 1 || c.L2KB < 1:
		return fmt.Errorf("sim: cache sizes must be positive")
	case c.ICacheKB > maxCacheKB || c.DCacheKB > maxCacheKB || c.L2KB > maxCacheKB:
		return fmt.Errorf("sim: cache sizes must be at most %d KB", maxCacheKB)
	case c.DCacheAssoc < 1 || c.L2Assoc < 1 || c.DCacheAssoc > maxAssoc || c.L2Assoc > maxAssoc:
		return fmt.Errorf("sim: associativity must be in [1, %d]", maxAssoc)
	case c.DCacheLat < 1 || c.L2Lat < 1 || c.MemLat < 1:
		return fmt.Errorf("sim: latencies must be ≥ 1")
	}
	return nil
}

// Stats accumulates measurements from a simulation run.
type Stats struct {
	Cycles       int64
	Instructions int64

	Branches    int64
	Mispredicts int64

	IL1Accesses int64
	IL1Misses   int64
	DL1Accesses int64
	DL1Misses   int64
	L2Accesses  int64
	L2Misses    int64

	// Energy is the activity-based energy estimate in arbitrary units
	// (see the energy constants in cpu.go).
	Energy float64

	ExitValue int64 // main's return value
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}
