package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// planeBackend is the in-process farm with its Drain and Close counted.
type planeBackend struct {
	*farm.Farm
	drains, closes *atomic.Int64
}

func (b *planeBackend) Drain(ctx context.Context) error {
	b.drains.Add(1)
	return nil
}

func (b *planeBackend) Close() error {
	b.closes.Add(1)
	return b.Farm.Close()
}

// predictAt posts one predict for the workload at the named scale and returns
// its predictions. It reports through its error, so any goroutine may call it.
func predictAt(url, workload, scale string, points [][]int64) ([]float64, error) {
	body, err := json.Marshal(PredictRequest{Workload: workload, Scale: scale, Model: "linear", Points: points})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("predict %s at scale %q: status %d: %s", workload, scale, resp.StatusCode, msg)
	}
	var pr PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&pr)
	return pr.Predictions, err
}

// TestScalesShareOnePlane asks for one workload at the daemon's scale and then
// at another. The daemon has one measurement plane, so MakeBackend runs once,
// the 30 training points the two designs share (TrainPoints overrides both
// sizes, and a design depends on size and seed only) are simulated once for
// both fits, /metrics has one farm block, and Drain and Close reach that plane
// once. Two more workloads then arrive at the two scales at the same moment:
// both run on the same plane, 30 simulations each.
func TestScalesShareOnePlane(t *testing.T) {
	var made, sims, drains, closes atomic.Int64
	srv := New(Options{
		Scale:       "quick",
		TrainPoints: 30,
		MakeBackend: func(fo farm.Options) farm.Backend {
			made.Add(1)
			fo.Measure = countingMeasure(&sims)
			return &planeBackend{Farm: farm.New(fo), drains: &drains, closes: &closes}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	points := testPoints(2, 11)
	own, err := predictAt(ts.URL, "179.art", "", points)
	if err != nil {
		t.Fatal(err)
	}
	other, err := predictAt(ts.URL, "179.art", "default", points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(own, other) {
		t.Errorf("the two scales fitted the same 30 points and predict differently: %v vs %v", own, other)
	}
	if n := made.Load(); n != 1 {
		t.Errorf("MakeBackend called %d times, want 1", n)
	}
	if n := sims.Load(); n != 30 {
		t.Errorf("%d simulations for one 30-point design at two scales, want 30", n)
	}

	resp := mustGet(t, ts.URL+"/metrics")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if n := strings.Count(text, "empiricod_farm_workers{"); n != 1 {
		t.Errorf("/metrics has %d empiricod_farm_workers lines, want 1", n)
	}
	for _, want := range []string{
		"empiricod_model_fits_total 2\n",
		`empiricod_farm_sims_total{scale="quick"} 30` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var wg sync.WaitGroup
	for workload, scale := range map[string]string{"181.mcf": "default", "256.bzip2": ""} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := predictAt(ts.URL, workload, scale, points); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m, n := made.Load(), sims.Load(); m != 1 || n != 90 {
		t.Errorf("after two more workloads, one at each scale: %d backends and %d simulations, want 1 and 90", m, n)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d, c := drains.Load(), closes.Load(); d != 1 || c != 1 {
		t.Errorf("plane drained %d times and closed %d times, want 1 and 1", d, c)
	}
}

// TestOtherScaleReadsItsCacheFile keeps a warm cache directory warm across a
// change of -scale: a daemon at "quick" answering a request at "default"
// reads measurements-default.json, which a daemon at "default" left behind,
// into its plane's store and simulates nothing.
func TestOtherScaleReadsItsCacheFile(t *testing.T) {
	dir := t.TempDir()
	points := testPoints(2, 12)
	boot := func(scale string, sims *atomic.Int64) (*Server, *httptest.Server) {
		srv := New(Options{Scale: scale, CacheDir: dir, TrainPoints: 30, MakeBackend: stubPlane(countingMeasure(sims))})
		return srv, httptest.NewServer(srv.Handler())
	}

	var first atomic.Int64
	s1, ts1 := boot("default", &first)
	want, err := predictAt(ts1.URL, "179.art", "", points)
	ts1.Close()
	if cerr := s1.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Load(); n != 30 {
		t.Fatalf("first server ran %d simulations, want 30", n)
	}

	var second atomic.Int64
	s2, ts2 := boot("quick", &second)
	defer ts2.Close()
	defer s2.Close()
	got, err := predictAt(ts2.URL, "179.art", "default", points)
	if err != nil {
		t.Fatal(err)
	}
	if n := second.Load(); n != 0 {
		t.Errorf("second server ran %d simulations for points in measurements-default.json, want 0", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("predictions from the cached points differ: %v vs %v", got, want)
	}
}

// TestSearchRejectsUncheckedInput covers what /v1/search used to pass on
// unchecked: sizes that are allocated before the first context check, and a
// frozen block whose values code to NaN or ±Inf, which the JSON stream cannot
// carry (the client got 200 and no bytes). The sizes at the limit are served.
func TestSearchRejectsUncheckedInput(t *testing.T) {
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
		req  SearchRequest
		code int
		want string // in the error message, or in the stream's last line
	}{
		{"population above the limit", SearchRequest{Population: maxSearchPopulation + 1}, http.StatusBadRequest, "limit of 1024"},
		{"generations above the limit", SearchRequest{Generations: maxSearchGenerations + 1}, http.StatusBadRequest, "limit of 1024"},
		{"march of zeros", SearchRequest{March: make([]int64, 11)}, http.StatusBadRequest, "out of range"},
		{"march too short", SearchRequest{March: []int64{4, 2048}}, http.StatusBadRequest, "has 2 values"},
		{"population at the limit", SearchRequest{Population: maxSearchPopulation, Generations: 1}, http.StatusOK, `"done":true`},
		{"generations at the limit", SearchRequest{Population: 4, Generations: maxSearchGenerations}, http.StatusOK, `"done":true`},
	}
	for _, tc := range cases {
		tc.req.Workload = "179.art"
		resp := postJSON(t, ts.URL+"/v1/search", tc.req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (body starts %.120q)", tc.name, resp.StatusCode, tc.code, body)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if last := lines[len(lines)-1]; !strings.Contains(last, tc.want) {
			t.Errorf("%s: last line %q does not contain %q", tc.name, last, tc.want)
		}
	}
}

// TestMeasureBoundsItsWork: /v1/measure refuses a request of more points than
// maxMeasurePoints, whatever its size in bytes, and serves one at the limit.
func TestMeasureBoundsItsWork(t *testing.T) {
	srv := New(Options{
		Scale: "quick",
		Batch: func(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
			return make([]float64, len(pts)), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	points := testPoints(maxMeasurePoints+1, 13)
	for _, tc := range []struct {
		name string
		n    int
		code int
		want string
	}{
		{"points above the limit", maxMeasurePoints + 1, http.StatusBadRequest, "limit of 4096"},
		{"points at the limit", maxMeasurePoints, http.StatusOK, `"values":[0,`},
	} {
		resp := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: points[:tc.n]})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d, want %d and %q (body starts %.120q)", tc.name, resp.StatusCode, tc.code, tc.want, body)
		}
	}
}
