package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
)

// drainBackend wraps the in-process farm with a Drain that blocks until the
// test releases its gated measurement — the shape of a distributed
// coordinator waiting out its in-flight leases.
type drainBackend struct {
	*farm.Farm
	drains *atomic.Int64
	gate   <-chan struct{}
}

func (d *drainBackend) Drain(ctx context.Context) error {
	d.drains.Add(1)
	select {
	case <-d.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ farm.Drainer = (*drainBackend)(nil)

// TestDrainUnderLoad pins the shutdown lifecycle empiricod relies on:
// Server.Drain reaches the measurement backend while a measurement is still
// in flight, blocks until that work finishes, and the in-flight request
// completes normally — drain is not an abort.
func TestDrainUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	var drains atomic.Int64
	srv := New(Options{
		Scale: "quick",
		MakeBackend: func(fo farm.Options) farm.Backend {
			fo.Measure = func(ctx context.Context, job farm.Job) (farm.Result, error) {
				started <- struct{}{}
				select {
				case <-gate:
				case <-ctx.Done():
					return farm.Result{}, ctx.Err()
				}
				return farm.Result{Cycles: 42, Energy: 7}, nil
			}
			return &drainBackend{Farm: farm.New(fo), drains: &drains, gate: gate}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	reqDone := make(chan string, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: testPoints(1, 9)})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reqDone <- resp.Status
			return
		}
		var mr MeasureResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			reqDone <- err.Error()
			return
		}
		if len(mr.Values) != 1 || mr.Values[0] != 42 {
			reqDone <- "wrong values"
			return
		}
		reqDone <- ""
	}()
	<-started // the measurement is on a farm worker now

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	// Drain must be waiting on the in-flight measurement, not returning
	// early with work still running.
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned (%v) while a measurement was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if msg := <-reqDone; msg != "" {
		t.Fatalf("in-flight request failed across drain: %s", msg)
	}
	if n := drains.Load(); n != 1 {
		t.Fatalf("backend Drain called %d times, want 1", n)
	}
}
