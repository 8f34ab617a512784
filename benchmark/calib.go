package main

import (
	"sync"
	"time"
)

// The host's speed is not steady (README.md, "Steadiness"): neighbours on the
// shared machine slow every cache miss for minutes at a time, and a whole run
// reads 10-30 % slower than the one before it. So each run also times a fixed
// piece of work of this file's own, spread over the run, and reports its
// timings at the speed that work says the host had.

// calibWalks are the two walks of one sample, each over a table of its own.
// The small table, 256 KiB, stays in a core's private caches: the walk slows
// when the core's other hardware thread is busy. The large one, 2 MiB, lives
// in the cache the whole socket shares: the walk slows when neighbours fill
// that cache or the memory bus. The workloads feel both, each in its own
// proportion; over fifty runs the sum of the two walks followed every one of
// them to about a tenth, where either walk alone lost one or two.
var calibWalks = []struct{ words, iters int }{
	{1 << 15, 5_000_000},
	{1 << 18, 4_000_000},
}

const (
	// calibNominal is what one sample takes on the reference box in an
	// ordinary hour, in seconds. It only fixes the scale: a run on a host at
	// that speed reports its timings as measured.
	calibNominal = 0.080
	// calibShare is the part of a run spent on samples.
	calibShare = 0.10
)

// calibWalk reads the table in an order the data decides, with a branch the
// data decides and a store now and then: the shape of an interpreter's loop.
func calibWalk(table []uint64, n int) uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	mask := uint64(len(table) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&mask]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
			table[(x>>20)&mask] = acc
		}
	}
	return acc
}

// hostClock collects the run's samples of the host's speed.
type hostClock struct {
	tables  [][][]uint64 // by thread, by walk
	start   time.Time
	spent   float64
	samples []float64
}

// newHostClock prepares one table per thread; the workloads keep that many
// threads busy, so the samples do too.
func newHostClock(threads int) *hostClock {
	h := &hostClock{start: time.Now()}
	for i := 0; i < threads; i++ {
		var ts [][]uint64
		for _, w := range calibWalks {
			t := make([]uint64, w.words)
			for j := range t {
				t[j] = uint64(j) * 0x9e3779b97f4a7c15
			}
			ts = append(ts, t)
		}
		h.tables = append(h.tables, ts)
	}
	return h
}

// sample times the two walks once, on every thread at the same time.
func (h *hostClock) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, ts := range h.tables {
		wg.Add(1)
		go func(ts [][]uint64) {
			defer wg.Done()
			for i, w := range calibWalks {
				calibWalk(ts[i], w.iters)
			}
		}(ts)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	h.samples = append(h.samples, d)
	h.spent += d
}

// keepUp takes samples until they make up their share of the time since the
// clock was made. Called between set-ups and between passes, it spreads the
// samples over the run whatever a pass lasts.
func (h *hostClock) keepUp() {
	for len(h.samples) == 0 || h.spent < calibShare*time.Since(h.start).Seconds() {
		h.sample()
	}
}

// factor is what a duration of this run is multiplied by to read as on a
// quiet reference box.
func (h *hostClock) factor() float64 {
	return calibNominal / median(h.samples)
}

// atHostSpeed scales one end-to-end value: a duration by the factor, a rate
// by its inverse.
func atHostSpeed(v float64, better string, factor float64) float64 {
	if better == "higher" {
		return v / factor
	}
	return v * factor
}
