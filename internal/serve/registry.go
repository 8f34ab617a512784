// Package serve is the service layer of the reproduction: an HTTP JSON
// front-end (stdlib net/http only) over the measurement farm, the simulator
// and the empirical-model pipeline. cmd/empiricod hosts it as a daemon.
//
// The package provides four pieces:
//
//   - Registry: fitted models cached per (workload, scale) in a par.Cache,
//     so the first wave of concurrent predict requests trains exactly once,
//     with LRU eviction bounding resident models;
//   - ArtifactStore: versioned on-disk persistence of every successful fit
//     (atomic-rename files), so boots warm-start from artifacts instead of
//     refitting, reloads swap new artifacts in without downtime, and
//     read-only replicas serve prediction traffic with no farm at all;
//   - Server: the HTTP handlers (/v1/predict, /v1/measure, /v1/search,
//     /v1/rank, /v1/reload, /healthz, /metrics) with per-endpoint
//     token-bucket rate limiting, max-in-flight shedding and graceful
//     shutdown. A measure request goes to the plane's planner as it arrives;
//     that is where concurrent requests meet (farm.Planner), not here;
//   - Metrics: a hand-rolled Prometheus-text exporter for request counters,
//     latency histograms and the farm/registry/runtime gauges.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/doe"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/workloads"
)

// Artifacts is everything one training run produces and the service needs
// to answer predict and rank requests: the fitted models of every kind, the
// space they are coded over, and the coded training matrix (the background
// points effect ranking averages over).
type Artifacts struct {
	Workload workloads.Workload
	Space    *doe.Space
	Models   map[string]model.Model
	TrainX   [][]float64

	// ranks memoizes the full effect ranking per model kind, computed on
	// first use under rankMu (concurrent first requests wait for the one
	// computation). The memo lives and dies with the entry: a reload, or a
	// re-resolution after eviction, installs a new Artifacts value whose memo
	// is empty, so a ranking can never outlive the model it describes.
	rankMu sync.Mutex
	ranks  map[string][]RankedEffect
}

// Model resolves a model kind ("linear", "mars", "rbf", "mars-raw"; "" means
// rbf, the paper's search surrogate).
func (a *Artifacts) Model(kind string) (model.Model, error) {
	if kind == "" {
		kind = "rbf"
	}
	m, ok := a.Models[kind]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model kind %q", kind)
	}
	return m, nil
}

// ranking returns every main effect and two-factor interaction of the kind's
// model m, largest magnitude first (model.AllEffects, labels rendered), and
// whether it was already computed. The slice is shared: callers must not
// modify it.
func (a *Artifacts) ranking(kind string, m model.Model) (effects []RankedEffect, hit bool) {
	a.rankMu.Lock()
	defer a.rankMu.Unlock()
	if effects, hit = a.ranks[kind]; !hit {
		for _, e := range model.AllEffects(m, a.Space, a.TrainX) {
			effects = append(effects, RankedEffect{Label: e.Label(), Value: e.Value})
		}
		if a.ranks == nil {
			a.ranks = map[string][]RankedEffect{}
		}
		a.ranks[kind] = effects
	}
	return effects, hit
}

// Trainer produces the artifacts for one (workload, scale) pair. The
// harness-backed trainer measures the training design (warm-started from
// the farm's durable store) and runs exp.FitAllParallel; tests inject
// stubs. Trainers are called outside the registry lock and may run long.
type Trainer func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error)

// Registry caches fitted models per (workload, scale) key in a par.Cache.
// Lookups are single-flight: concurrent first requests for a key block on one
// training run instead of each starting their own. Every model kind is fitted
// in the same run (exp.FitAllParallel trains all four from one dataset), so
// the finer (workload, scale, kind) request key resolves onto one shared cache
// entry. Least-recently-used entries are evicted beyond MaxEntries, but never
// one still fitting.
//
// With an ArtifactStore attached (UseStore), every successful fit is
// persisted, misses try disk before training (so warm processes and
// restarts never refit what a prior run already fitted), and Reload swaps
// freshly persisted artifacts in copy-on-write — in-flight requests keep
// the artifacts they resolved, new requests see the reloaded ones. In
// read-only (replica) mode the trainer is never called: a miss with no
// usable artifact fails with *NoArtifactError.
type Registry struct {
	trainer  Trainer
	store    *ArtifactStore
	readOnly bool
	log      io.Writer
	cache    *par.Cache[string, *Artifacts]

	mu    sync.Mutex
	stats RegistryStats // the cache counts Cached, Hits, Misses and Evictions
}

// RegistryStats snapshots the registry's counters.
type RegistryStats struct {
	Cached    int   // entries resident (including in-training)
	Fits      int64 // training runs started
	Hits      int64 // lookups that found an entry (trained or in-flight)
	Misses    int64 // lookups that found no entry (resolved from disk or a fit)
	Evictions int64
	Loads     int64 // artifacts loaded from disk (boot, lazy miss, reload)
	Persists  int64 // artifacts written after successful fits
	Corrupt   int64 // artifact files skipped as undecodable
	Reloads   int64 // reload sweeps completed
}

// NewRegistry returns a registry over trainer holding at most maxEntries
// fitted (workload, scale) pairs (0 means 8).
func NewRegistry(trainer Trainer, maxEntries int) *Registry {
	if maxEntries <= 0 {
		maxEntries = 8
	}
	return &Registry{trainer: trainer, cache: par.NewCache[string, *Artifacts](maxEntries)}
}

// UseStore attaches an artifact store. In read-only mode the registry never
// trains: it serves persisted artifacts only. Call before serving traffic.
func (r *Registry) UseStore(s *ArtifactStore, readOnly bool, log io.Writer) {
	r.store = s
	r.readOnly = readOnly
	r.log = log
}

func (r *Registry) logf(format string, args ...interface{}) {
	if r.log != nil {
		fmt.Fprintf(r.log, format+"\n", args...)
	}
}

func regKey(w workloads.Workload, scale string) string { return w.Key() + "|" + scale }

// Get returns the artifacts for (w, scale), resolving them on first use:
// from the artifact store when one is attached and has the pair, otherwise
// by training (writer mode) or failing with *NoArtifactError (replica). The
// second return reports whether the call was served from cache (true even
// when it joined a resolution already in flight — no new fit was started).
// ctx bounds only this caller's wait: training itself runs under a
// background context, because its result is shared with every other waiter
// and with future requests — a disconnecting first client must not abort a
// fit that others are (or will be) waiting on.
// A failed resolution is not cached: the next request retries it.
func (r *Registry) Get(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, bool, error) {
	return r.cache.Get(ctx, regKey(w, scale), func() (*Artifacts, error) { return r.resolve(w, scale) })
}

// resolve produces the artifacts for a registry miss: disk first when a
// store is attached, then a training run (writer mode only). A successful
// fit is persisted before the entry is published, so a replica's next
// reload sees it.
func (r *Registry) resolve(w workloads.Workload, scale string) (*Artifacts, error) {
	if r.store != nil {
		art, err := r.store.Load(w, scale)
		if err == nil {
			r.count(func(st *RegistryStats) { st.Loads++ })
			return art, nil
		}
		var corrupt *CorruptArtifactError
		if errors.As(err, &corrupt) {
			// Log and fall through: the writer refits (and overwrites the bad
			// file); the replica reports the pair unavailable until then.
			r.count(func(st *RegistryStats) { st.Corrupt++ })
			r.logf("registry: %v", err)
			if r.readOnly {
				return nil, &NoArtifactError{Key: regKey(w, scale)}
			}
		} else if r.readOnly {
			return nil, err // *NoArtifactError
		}
	} else if r.readOnly {
		return nil, &NoArtifactError{Key: regKey(w, scale)}
	}

	r.count(func(st *RegistryStats) { st.Fits++ })
	art, err := r.trainer(context.Background(), w, scale)
	if err != nil {
		return nil, err
	}
	if r.store != nil {
		if err := r.store.Save(art, scale); err != nil {
			// Persistence is durability, not correctness: serve the fit and
			// let the next fit (or operator) retry the write.
			r.logf("registry: persist failed: %v", err)
		} else {
			r.count(func(st *RegistryStats) { st.Persists++ })
		}
	}
	return art, nil
}

func (r *Registry) count(f func(*RegistryStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// Reload rescans the artifact store and swaps every decodable artifact into
// the registry copy-on-write: each becomes a fresh, already-ready entry, so
// requests in flight finish on the artifact pointer they resolved while new
// requests see the reloaded one. Corrupt files are logged and skipped.
// Entries mid-training are left alone (the in-flight fit is at least as
// fresh as anything on disk). Warm boot is a Reload over an empty registry.
func (r *Registry) Reload() (loaded, skipped int, err error) {
	if r.store == nil {
		return 0, 0, fmt.Errorf("serve: no artifact store attached")
	}
	arts, skipped, err := r.store.LoadAll()
	if err != nil {
		return 0, skipped, err
	}
	for _, la := range arts {
		r.cache.Put(regKey(la.Art.Workload, la.Scale), la.Art)
		loaded++
	}
	r.count(func(st *RegistryStats) {
		st.Reloads++
		st.Loads += int64(loaded)
		st.Corrupt += int64(skipped)
	})
	return loaded, skipped, nil
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	cs := r.cache.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Cached, st.Hits, st.Misses, st.Evictions = cs.Len, cs.Hits, cs.Misses, cs.Evictions
	return st
}
