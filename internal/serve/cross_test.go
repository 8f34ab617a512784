package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/features"
	"repro/internal/wlgen"
)

// crossTestServer boots a server whose measurements run through a counting
// stub, so tests can pin exactly how many farm dispatches each request costs.
func crossTestServer(t *testing.T, executions *atomic.Int64) (*Server, *httptest.Server) {
	t.Helper()
	return crossTestServerWith(t, countingMeasure(executions))
}

// countingMeasure is a deterministic stand-in for compile+simulate that
// counts its calls.
func countingMeasure(executions *atomic.Int64) farm.MeasureFunc {
	return func(ctx context.Context, job farm.Job) (farm.Result, error) {
		executions.Add(1)
		c := 1000.0 + 2.0*float64(len(job.Workload.Source))
		for i, v := range job.Point {
			c += float64(i%7+1) * math.Abs(float64(v)) * 0.05
		}
		return farm.Result{Cycles: c, Energy: c / 2, Instructions: 1000}, nil
	}
}

func crossTestServerWith(t *testing.T, measure farm.MeasureFunc) (*Server, *httptest.Server) {
	t.Helper()
	features.ClearCache()
	srv := New(Options{
		Scale:           "quick",
		CrossCorpusSize: 4,
		CrossPointsPer:  3,
		Measure:         measure,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestPredictProgramZeroDispatchAfterTraining is the acceptance criterion:
// the first /v1/predict-program request trains the cross models (measuring
// only the training corpus, never the submitted program), and a second
// request for a different never-measured program answers from the resident
// models with zero farm dispatches.
func TestPredictProgramZeroDispatchAfterTraining(t *testing.T) {
	var executions atomic.Int64
	_, ts := crossTestServer(t, &executions)
	pts := testPoints(3, 5)

	resp := postJSON(t, ts.URL+"/v1/predict-program", PredictProgramRequest{
		Source: wlgen.Generate(777).Source,
		Points: pts,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("first request: status %d: %s", resp.StatusCode, b)
	}
	var out PredictProgramResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("first request reported cached cross models")
	}
	if out.Model != "rbf" {
		t.Errorf("default model = %q, want rbf", out.Model)
	}
	if len(out.Predictions) != len(pts) {
		t.Fatalf("%d predictions for %d points", len(out.Predictions), len(pts))
	}
	for i, p := range out.Predictions {
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			t.Errorf("prediction %d = %v, want positive finite cycles", i, p)
		}
	}
	if len(out.Features) != features.NumFeatures() {
		t.Errorf("%d features returned, want %d", len(out.Features), features.NumFeatures())
	}
	if out.Fingerprint == "" {
		t.Error("missing fingerprint")
	}

	// Training measured the corpus (7 seeds + 4 generated) at 3 points each —
	// and, critically, never the submitted program.
	wantSims := int64((7 + 4) * 3)
	if got := executions.Load(); got != wantSims {
		t.Fatalf("training dispatched %d sims, want %d", got, wantSims)
	}

	resp2 := postJSON(t, ts.URL+"/v1/predict-program", PredictProgramRequest{
		Source: wlgen.Generate(778).Source,
		Model:  "linear",
		Points: pts,
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("second request: status %d: %s", resp2.StatusCode, b)
	}
	var out2 PredictProgramResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Error("second request retrained the cross models")
	}
	if out2.Model != "linear" {
		t.Errorf("model = %q, want linear", out2.Model)
	}
	if got := executions.Load(); got != wantSims {
		t.Fatalf("second request dispatched %d extra sims, want zero", got-wantSims)
	}
	if out2.Fingerprint == out.Fingerprint {
		t.Error("distinct programs share a fingerprint")
	}
}

// TestPredictProgramWaiterHonoursContext pins that a /v1/predict-program
// caller waits for cross-model training only as long as its own request
// lives: with training blocked inside the measurement stub, the request that
// started it and one that joined it both return 499 as soon as their contexts
// are cancelled, the training they left behind still completes exactly once,
// and the next request is answered from the resident models.
func TestPredictProgramWaiterHonoursContext(t *testing.T) {
	var executions atomic.Int64
	counting := countingMeasure(&executions)
	started, release := make(chan struct{}), make(chan struct{})
	var startOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	srv, ts := crossTestServerWith(t, func(ctx context.Context, job farm.Job) (farm.Result, error) {
		startOnce.Do(func() { close(started) })
		<-release
		return counting(ctx, job)
	})
	t.Cleanup(unblock) // registered after the server's: runs first, so Close can drain

	body, err := json.Marshal(PredictProgramRequest{Source: wlgen.Generate(777).Source, Points: testPoints(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	codes := make(chan int, 2)
	serve := func() {
		req := httptest.NewRequest("POST", "/v1/predict-program", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		codes <- rec.Code
	}
	go serve() // starts the training run
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("training never reached the measurement stub")
	}
	go serve() // joins it (or, rarely, is still extracting features: same outcome)
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != 499 {
				t.Errorf("cancelled waiter answered %d, want 499", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter still blocked on cross-model training")
		}
	}
	if n := srv.inFlight.Load(); n != 0 {
		t.Errorf("%d in-flight slots still held by cancelled waiters", n)
	}

	unblock()
	resp := postJSON(t, ts.URL+"/v1/predict-program", PredictProgramRequest{
		Source: wlgen.Generate(778).Source,
		Points: testPoints(2, 5),
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("request after the abandoned training: status %d: %s", resp.StatusCode, b)
	}
	var out PredictProgramResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("request after the abandoned training started a second one")
	}
	if fits := srv.crossFits.Load(); fits != 1 {
		t.Errorf("%d cross-model training runs, want 1", fits)
	}
	if got, want := executions.Load(), int64((7+4)*3); got != want {
		t.Errorf("training dispatched %d sims, want %d", got, want)
	}
}

func TestPredictProgramRejectsBadRequests(t *testing.T) {
	var executions atomic.Int64
	_, ts := crossTestServer(t, &executions)
	pts := testPoints(1, 9)
	src := wlgen.Generate(42).Source

	cases := []struct {
		name string
		req  PredictProgramRequest
	}{
		{"invalid source", PredictProgramRequest{Source: "int main( {", Points: pts}},
		{"check error", PredictProgramRequest{Source: "int main() { return nope; }", Points: pts}},
		{"missing source", PredictProgramRequest{Points: pts}},
		{"no points", PredictProgramRequest{Source: src}},
		{"unknown model", PredictProgramRequest{Source: src, Model: "cubist", Points: pts}},
		{"bad point", PredictProgramRequest{Source: src, Points: [][]int64{{1, 2}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/predict-program", tc.req)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
			}
		})
	}
}

func TestPredictProgramReplicaRefuses(t *testing.T) {
	srv := New(Options{Scale: "quick", Replica: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	resp := postJSON(t, ts.URL+"/v1/predict-program", PredictProgramRequest{
		Source: wlgen.Generate(1).Source,
		Points: testPoints(1, 1),
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestMetricsExposeCrossAndFeatureCacheSeries(t *testing.T) {
	var executions atomic.Int64
	_, ts := crossTestServer(t, &executions)
	resp := postJSON(t, ts.URL+"/v1/predict-program", PredictProgramRequest{
		Source: wlgen.Generate(5).Source,
		Points: testPoints(1, 2),
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict-program status %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	b, _ := io.ReadAll(mr.Body)
	body := string(b)
	for _, want := range []string{
		"empiricod_cross_models_cached 1",
		"empiricod_cross_fits_total 1",
		"empiricod_feature_cache_hits_total",
		"empiricod_feature_cache_misses_total",
		`empiricod_requests_total{endpoint="predict-program",code="200"} 1`,
		`empiricod_request_duration_seconds_count{endpoint="predict-program"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
