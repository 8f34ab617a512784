package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("predict=3,rank=1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mix["predict"]-0.75) > 1e-12 || math.Abs(mix["rank"]-0.25) > 1e-12 {
		t.Fatalf("normalized mix %v", mix)
	}
	for _, bad := range []string{"", "predict", "predict=-1", "teapot=1", "predict=x"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("mix %q accepted", bad)
		}
	}
	// The sampler covers the whole unit interval.
	if got := pickEndpoint(mix, 0.5); got != "predict" {
		t.Fatalf("u=0.5 picked %q", got)
	}
	if got := pickEndpoint(mix, 0.9); got != "rank" {
		t.Fatalf("u=0.9 picked %q", got)
	}
	if got := pickEndpoint(mix, 1.0); got != "rank" {
		t.Fatalf("u=1.0 picked %q (must fall into the last bucket)", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {1, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Fatalf("p%.0f of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty percentile %v", got)
	}
}

func TestSummarize(t *testing.T) {
	samples := []sample{
		{latency: 10 * time.Millisecond, name: "predict"},
		{latency: 20 * time.Millisecond, name: "predict"},
		{latency: 30 * time.Millisecond, name: "rank", err: true},
		{latency: 40 * time.Millisecond, name: "predict"},
	}
	rep := summarize("closed", 2*time.Second, samples)
	if rep.Requests != 4 || rep.Errors != 1 {
		t.Fatalf("counts %+v", rep)
	}
	if rep.ErrRate != 0.25 || rep.RPS != 2 {
		t.Fatalf("rates %+v", rep)
	}
	if rep.P50Ms != 20 || rep.P99Ms != 40 || rep.MaxMs != 40 {
		t.Fatalf("percentiles %+v", rep)
	}
	if rep.ByEndpoint["predict"] != 3 || rep.ByEndpoint["rank"] != 1 {
		t.Fatalf("by-endpoint %+v", rep)
	}
}

func TestCheckSLO(t *testing.T) {
	ok := &Report{Requests: 1000, P99Ms: sloP99Ms, ErrRate: sloErrRate}
	if err := checkSLO(ok); err != nil {
		t.Fatalf("report at the caps rejected: %v", err)
	}
	for name, rep := range map[string]*Report{
		"slow p99":    {Requests: 1000, P99Ms: sloP99Ms + 1},
		"errors":      {Requests: 1000, ErrRate: 2 * sloErrRate},
		"no requests": {},
	} {
		if err := checkSLO(rep); err == nil {
			t.Errorf("%s: accepted %+v", name, rep)
		}
	}
}

// TestRunAgainstStubServer drives the full closed loop briefly against a
// stub endpoint set and checks the report is coherent.
func TestRunAgainstStubServer(t *testing.T) {
	var predicts, ranks atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		predicts.Add(1)
		var req struct {
			Points [][]int64 `json:"points"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Points) == 0 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"predictions": make([]float64, len(req.Points))})
	})
	mux.HandleFunc("GET /v1/rank", func(w http.ResponseWriter, r *http.Request) {
		ranks.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"effects": []any{}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	mix, _ := parseMix("predict=0.8,rank=0.2")
	rep, err := run(config{
		addr: ts.URL, workloads: []string{"179.art"}, mix: mix,
		duration: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		conns: 4, points: 2, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Mode != "closed" {
		t.Fatalf("report %+v", rep)
	}
	if rep.ErrRate != 0 {
		t.Fatalf("stub run had errors: %+v", rep)
	}
	if rep.P99Ms < rep.P50Ms || rep.MaxMs < rep.P99Ms {
		t.Fatalf("percentiles out of order: %+v", rep)
	}
	if predicts.Load() == 0 || ranks.Load() == 0 {
		t.Fatalf("mix not exercised: %d predicts, %d ranks", predicts.Load(), ranks.Load())
	}
}
