package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func testPoints(n int, seed int64) [][]int64 {
	space := doe.JointSpace()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, n)
	for i := range out {
		out[i] = space.RandomPoint(rng)
	}
	return out
}

// coalesceValue mirrors the farm-test convention: a deterministic fake
// measurement derived from the point, so distribution can be verified.
func coalesceValue(p doe.Point) float64 {
	v := 1.0
	for _, x := range p {
		v = v*31 + float64(x)
	}
	return v
}

// waitPlanned blocks until the server's planner has classified n measure
// points as store hit, new task or joiner — the event "every client has
// arrived".
func waitPlanned(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.plane.FarmStats()
		if st.CacheHits+st.CacheMisses+st.Coalesced >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("planner never classified %d points: %+v", n, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPredictOneFitUnderConcurrentRequests is the acceptance criterion: 50
// concurrent first requests for the same (workload, scale) train exactly
// once, and a later request is a registry-cache hit that answers without
// retraining.
func TestPredictOneFitUnderConcurrentRequests(t *testing.T) {
	var fits atomic.Int64
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			fits.Add(1)
			time.Sleep(20 * time.Millisecond)
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := PredictRequest{Workload: "179.art", Points: testPoints(3, 1)}
	const callers = 50
	var wg sync.WaitGroup
	fail := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/predict", req)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				fail <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
				return
			}
			var pr PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				fail <- err.Error()
				return
			}
			if len(pr.Predictions) != 3 {
				fail <- fmt.Sprintf("%d predictions, want 3", len(pr.Predictions))
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("%d concurrent predict requests caused %d fits, want 1", callers, n)
	}

	resp := postJSON(t, ts.URL+"/v1/predict", req)
	defer resp.Body.Close()
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Cached {
		t.Fatal("follow-up request was not served from the registry cache")
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("cache hit retrained: %d fits", n)
	}
}

// TestMeasureCoalescesConcurrentClients drives the real farm (with a stub
// compile+simulate executor) through the HTTP measure endpoint with one
// worker: the first client's points hold it, every client arriving meanwhile
// meets them in the planner, and each distinct point is simulated once.
func TestMeasureCoalescesConcurrentClients(t *testing.T) {
	var executions atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := New(Options{
		Scale:   "quick",
		Workers: 1,
		Measure: func(ctx context.Context, job farm.Job) (farm.Result, error) {
			if executions.Add(1) == 1 {
				entered <- struct{}{}
			}
			<-gate
			return farm.Result{Cycles: coalesceValue(job.Point), Energy: 1, Instructions: 1}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	points := testPoints(6, 2)
	const clients = 20
	var wg sync.WaitGroup
	fail := make(chan string, clients)
	client := func(i int) {
		defer wg.Done()
		pts := [][]int64{points[i%len(points)], points[(i+2)%len(points)]}
		resp := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: pts})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fail <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			return
		}
		var mr MeasureResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			fail <- err.Error()
			return
		}
		for j, p := range pts {
			if mr.Values[j] != coalesceValue(doe.Point(p)) {
				fail <- "wrong value for requested point"
				return
			}
		}
	}
	wg.Add(clients)
	go client(0)
	<-entered // the first client's points occupy the farm's only worker
	for i := 1; i < clients; i++ {
		go client(i)
	}
	waitPlanned(t, srv, 2*clients)
	close(gate)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if n := executions.Load(); n != int64(len(points)) {
		t.Fatalf("%d simulations for %d distinct points", n, len(points))
	}
}

// TestMeasureClientsShareOneGroup sends eight one-point requests on one
// binary (-O2 flags, eight width-4 configurations) to a one-worker daemon
// with the real executor. The first occupies the worker; the others meet in
// the planner's open group, so the binary is compiled once and the points
// share interpretations — one group when the first request ran alone, two
// when a second arrived before the worker picked it up.
func TestMeasureClientsShareOneGroup(t *testing.T) {
	srv := New(Options{Scale: "quick", Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	wg.Add(clients)
	client := func(i int) {
		defer wg.Done()
		cfg := sim.DefaultConfig()
		cfg.MemLat = 60 + 10*i
		pt := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(cfg))
		resp := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: [][]int64{pt}})
		defer resp.Body.Close()
		var mr MeasureResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil || resp.StatusCode != http.StatusOK || len(mr.Values) != 1 || mr.Values[0] <= 0 {
			t.Errorf("client %d: status %d, values %v, err %v", i, resp.StatusCode, mr.Values, err)
		}
	}
	go client(0)
	waitPlanned(t, srv, 1)
	for i := 1; i < clients; i++ {
		go client(i)
	}
	wg.Wait()
	st := srv.plane.FarmStats()
	if st.SimsExecuted != clients || st.CompileCacheMisses != 1 || st.BinaryGroups < 1 || st.BinaryGroups > 2 || st.TraceSharedSims < clients-1 {
		t.Fatalf("sims=%d compile misses=%d groups=%d shared=%d, want %d, 1, 1 or 2, and at least %d",
			st.SimsExecuted, st.CompileCacheMisses, st.BinaryGroups, st.TraceSharedSims, clients, clients-1)
	}
}

// TestMeasureCancelledClientLeavesAlone has two clients ask for one point and
// the first hang up while it runs: the second's answer is the measurement,
// not the first's cancellation as a 499.
func TestMeasureCancelledClientLeavesAlone(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := New(Options{
		Scale:   "quick",
		Workers: 2,
		Measure: func(ctx context.Context, job farm.Job) (farm.Result, error) {
			entered <- struct{}{}
			select {
			case <-gate:
				return farm.Result{Cycles: coalesceValue(job.Point), Energy: 1, Instructions: 1}, nil
			case <-ctx.Done():
				return farm.Result{}, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := MeasureRequest{Workload: "179.art", Points: testPoints(1, 12)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/measure", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(hr); err == nil {
			resp.Body.Close()
			t.Error("the cancelled client got an answer")
		}
	}()
	<-entered
	stayed := make(chan *http.Response, 1)
	go func() { stayed <- postJSON(t, ts.URL+"/v1/measure", req) }()
	waitPlanned(t, srv, 2)

	cancel()
	<-gone
	// The server has seen the first client go once its request is counted.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(string(getBody(t, ts.URL+"/metrics")), `empiricod_requests_total{endpoint="measure",code="499"} 1`) {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled request never finished on the server")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	resp := <-stayed
	defer resp.Body.Close()
	var mr MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("the staying client got status %d (%v), want the measurement", resp.StatusCode, err)
	}
	if want := coalesceValue(doe.Point(req.Points[0])); len(mr.Values) != 1 || mr.Values[0] != want {
		t.Fatalf("the staying client got %v, want [%v]", mr.Values, want)
	}
}

// TestSearchStreamsGenerations reads the chunked ndjson stream: one record
// per generation plus a final done record with the totals.
func TestSearchStreamsGenerations(t *testing.T) {
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Workload: "179.art", Population: 8, Generations: 3, Seed: 4,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var records []SearchProgress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec SearchProgress
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// gen 0..3 plus the done record.
	if len(records) != 5 {
		t.Fatalf("stream had %d records, want 5: %+v", len(records), records)
	}
	last := records[len(records)-1]
	if !last.Done || last.Evals == 0 {
		t.Fatalf("final record not a done summary: %+v", last)
	}
	if len(last.Best) != doe.JointSpace().NumVars() {
		t.Fatalf("done record best has %d vars", len(last.Best))
	}
	// The frozen microarch block must match the default configuration.
	march := doe.FromConfig(sim.DefaultConfig())
	for i, v := range march {
		if last.Best[doe.NumCompilerVars+i] != v {
			t.Fatalf("microarch block not frozen at %d", i)
		}
	}
}

func TestRankEndpoint(t *testing.T) {
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Get(ts.URL + "/v1/rank?workload=179.art&n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Effects) != 5 {
		t.Fatalf("%d effects, want 5", len(rr.Effects))
	}
	if rr.Model != "mars-raw" {
		t.Fatalf("default rank model %q, want mars-raw", rr.Model)
	}
	// The stub model is a pure sum of coded coordinates: every main effect
	// is 1, every interaction 0, so the top 5 are all main effects.
	for _, e := range rr.Effects {
		if e.Value != 1 || strings.Contains(e.Label, "*") {
			t.Fatalf("unexpected top effect %+v", e)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz body %v", hz)
	}

	// One predict so per-endpoint counters exist.
	pr := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Workload: "179.art", Points: testPoints(1, 3)})
	pr.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	for _, want := range []string{
		`empiricod_requests_total{endpoint="predict",code="200"} 1`,
		`empiricod_request_duration_seconds_count{endpoint="predict"} 1`,
		"empiricod_model_fits_total 1",
		"empiricod_in_flight",
		"empiricod_measure_batches_total 0",
		"empiricod_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestRateLimitSheds429(t *testing.T) {
	srv := New(Options{
		Scale:      "quick",
		RatePerSec: 0.001, // effectively no refill within the test
		RateBurst:  2,
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := PredictRequest{Workload: "179.art", Points: testPoints(1, 4)}
	codes := make([]int, 3)
	for i := range codes {
		resp := postJSON(t, ts.URL+"/v1/predict", req)
		resp.Body.Close()
		codes[i] = resp.StatusCode
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third request not rate limited: %v", codes)
	}
	// The health endpoint is never rate limited.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatal("healthz rate limited")
	}
}

func TestMaxInFlightSheds(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Options{
		Scale:       "quick",
		MaxInFlight: 1,
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			<-gate
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := PredictRequest{Workload: "179.art", Points: testPoints(1, 5)}
	slow := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/predict", req)
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	// Wait for the slow request to occupy the in-flight slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/v1/predict", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request got %d, want 429", resp.StatusCode)
	}
	close(gate)
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("occupying request got %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			return stubArtifacts(w), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	cases := []struct {
		name string
		body any
	}{
		{"unknown workload", PredictRequest{Workload: "999.nope", Points: testPoints(1, 6)}},
		{"no points", PredictRequest{Workload: "179.art"}},
		{"out of range point", PredictRequest{Workload: "179.art", Points: [][]int64{make([]int64, 25)}}},
		{"unknown model", PredictRequest{Workload: "179.art", Model: "cubist", Points: testPoints(1, 7)}},
		{"bad class", MeasureRequest{Workload: "179.art", Class: "huge", Points: testPoints(1, 8)}},
	}
	for _, tc := range cases {
		url := ts.URL + "/v1/predict"
		if _, ok := tc.body.(MeasureRequest); ok {
			url = ts.URL + "/v1/measure"
		}
		resp := postJSON(t, url, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestServerCloseCheckpointsFarm exercises graceful shutdown: Close flushes
// the durable store so measurements survive into a fresh server.
func TestServerCloseCheckpointsFarm(t *testing.T) {
	dir := t.TempDir()
	var executions atomic.Int64
	mk := func() *Server {
		return New(Options{
			Scale:    "quick",
			CacheDir: dir,
			Measure: func(ctx context.Context, job farm.Job) (farm.Result, error) {
				executions.Add(1)
				return farm.Result{Cycles: coalesceValue(job.Point), Energy: 1, Instructions: 1}, nil
			},
		})
	}
	s1 := mk()
	ts1 := httptest.NewServer(s1.Handler())
	pt := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	resp := postJSON(t, ts1.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: [][]int64{pt}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure status %d", resp.StatusCode)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatalf("%d executions, want 1", executions.Load())
	}

	s2 := mk()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	resp = postJSON(t, ts2.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: [][]int64{pt}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remeasure status %d", resp.StatusCode)
	}
	if executions.Load() != 1 {
		t.Fatalf("checkpointed measurement re-simulated: %d executions", executions.Load())
	}
}
