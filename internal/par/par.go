// Package par provides the small deterministic parallel-execution helpers
// shared by the analytics hot paths (model fitting, experimental design,
// cross-validation, GA search). Every helper guarantees that results are
// independent of the worker count: each work item may only write state it
// owns (typically its own output index), and callers combine partial
// results in input order. That discipline is what lets the parallel
// analytics paths stay bit-for-bit identical to their serial versions.
//
// Cache is the other helper: the keyed single-flight cache behind every
// build-once-and-share in the system.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: w > 0 is used as-is, anything else
// (zero or negative) means runtime.GOMAXPROCS(0).
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs f(i) for every i in [0, n), on at most workers goroutines
// (Workers semantics: <= 0 means GOMAXPROCS). With one worker, or n <= 1,
// it runs inline on the calling goroutine — the serial reference path.
// f must only write state owned by index i; the overall outcome is then
// identical for every worker count.
func For(n, workers int, f func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	// Chunked atomic work-stealing: cheap for many small items, balanced
	// for few large ones.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(atomic.AddInt64(&next, int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Do runs the given functions concurrently on at most workers goroutines
// and waits for all of them.
func Do(workers int, fns ...func()) {
	For(len(fns), workers, func(i int) { fns[i]() })
}
