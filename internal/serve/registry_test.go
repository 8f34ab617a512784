package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/model"
	"repro/internal/workloads"
)

// funcModel adapts a function to model.Model for stub artifacts.
type funcModel struct {
	name string
	f    func(x []float64) float64
}

func (m funcModel) Predict(x []float64) float64 { return m.f(x) }
func (m funcModel) Name() string                { return m.name }

// stubArtifacts builds a full artifact set over the joint space whose every
// model kind predicts the sum of coded coordinates.
func stubArtifacts(w workloads.Workload) *Artifacts {
	sum := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s
	}
	models := map[string]model.Model{}
	for _, kind := range []string{"linear", "mars", "rbf", "mars-raw"} {
		models[kind] = funcModel{name: kind, f: sum}
	}
	space := doe.JointSpace()
	return &Artifacts{
		Workload: w,
		Space:    space,
		Models:   models,
		TrainX:   [][]float64{make([]float64, space.NumVars())},
	}
}

func TestRegistrySingleFlightOneFit(t *testing.T) {
	var fits atomic.Int64
	trainer := func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
		fits.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return stubArtifacts(w), nil
	}
	r := NewRegistry(trainer, 0)
	w := workloads.MustGet("179.art", workloads.Train)

	const callers = 50
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, _, err := r.Get(context.Background(), w, "quick")
			if err == nil && art == nil {
				err = errors.New("nil artifacts")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("%d concurrent requests caused %d fits, want 1", callers, n)
	}
	// A later request is a pure cache hit.
	_, cached, err := r.Get(context.Background(), w, "quick")
	if err != nil || !cached {
		t.Fatalf("cache hit: cached=%v err=%v", cached, err)
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("cache hit retrained: %d fits", n)
	}
	// A different scale is a different key.
	if _, _, err := r.Get(context.Background(), w, "default"); err != nil {
		t.Fatal(err)
	}
	if n := fits.Load(); n != 2 {
		t.Fatalf("distinct scale shared a fit: %d fits", n)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	var fits atomic.Int64
	trainer := func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
		fits.Add(1)
		return stubArtifacts(w), nil
	}
	r := NewRegistry(trainer, 2)
	get := func(name string) {
		t.Helper()
		w := workloads.MustGet(name, workloads.Train)
		if _, _, err := r.Get(context.Background(), w, "quick"); err != nil {
			t.Fatal(err)
		}
	}
	get("164.gzip")
	get("175.vpr")
	get("164.gzip") // touch: gzip is now most recent
	get("177.mesa") // evicts vpr (least recently used)
	if st := r.Stats(); st.Cached != 2 || st.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	before := fits.Load()
	get("164.gzip") // still resident
	if fits.Load() != before {
		t.Fatal("resident entry retrained")
	}
	get("175.vpr") // evicted: must retrain
	if fits.Load() != before+1 {
		t.Fatalf("evicted entry not retrained: %d fits (was %d)", fits.Load(), before)
	}
}

// TestRegistryNeverEvictsAFitInFlight: with room for one model, art still
// fitting and a request for mcf arriving, a second request for art joins the
// fit in flight instead of starting another.
func TestRegistryNeverEvictsAFitInFlight(t *testing.T) {
	var artFits atomic.Int64
	release := make(chan struct{})
	trainer := func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
		if w.Name == "179.art" {
			artFits.Add(1)
			<-release
		}
		return stubArtifacts(w), nil
	}
	r := NewRegistry(trainer, 1)
	art := workloads.MustGet("179.art", workloads.Train)
	mcf := workloads.MustGet("181.mcf", workloads.Train)
	first := make(chan error, 1)
	go func() {
		_, _, err := r.Get(context.Background(), art, "quick")
		first <- err
	}()
	for artFits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := r.Get(context.Background(), mcf, "quick"); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() {
		_, _, err := r.Get(context.Background(), art, "quick")
		second <- err
	}()
	for st := r.Stats(); st.Hits+st.Misses < 3; st = r.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if n := artFits.Load(); n != 1 {
		t.Fatalf("art fitted %d times, want 1", n)
	}
}

func TestRegistryFailedTrainNotCached(t *testing.T) {
	var fits atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	trainer := func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
		fits.Add(1)
		if failing.Load() {
			return nil, fmt.Errorf("injected training failure")
		}
		return stubArtifacts(w), nil
	}
	r := NewRegistry(trainer, 0)
	w := workloads.MustGet("181.mcf", workloads.Train)
	if _, _, err := r.Get(context.Background(), w, "quick"); err == nil {
		t.Fatal("expected training failure")
	}
	failing.Store(false)
	art, _, err := r.Get(context.Background(), w, "quick")
	if err != nil {
		t.Fatalf("retry after failed fit: %v", err)
	}
	if art == nil {
		t.Fatal("nil artifacts after successful retry")
	}
	if n := fits.Load(); n != 2 {
		t.Fatalf("failed fit was cached (or retried too often): %d fits, want 2", n)
	}
	if st := r.Stats(); st.Cached != 1 {
		t.Fatalf("registry holds %d entries, want 1", st.Cached)
	}
}
