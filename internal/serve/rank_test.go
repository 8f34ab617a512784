package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/model"
	"repro/internal/workloads"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestRankMemoComputesOnce: 50 concurrent first rank requests compute the
// ranking a single time — pinned by the miss counter and by the number of
// model evaluations, which is exactly one AllEffects pass.
func TestRankMemoComputesOnce(t *testing.T) {
	var evals atomic.Int64
	srv := New(Options{
		Scale: "quick",
		Trainer: func(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
			art := stubArtifacts(w)
			art.Models["mars-raw"] = funcModel{name: "mars-raw", f: func(x []float64) float64 {
				evals.Add(1)
				return x[0]
			}}
			return art, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const callers = 50
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/rank?workload=179.art&n=4")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) || len(b) == 0 {
			t.Fatalf("caller %d got %q, caller 0 got %q", i, b, bodies[0])
		}
	}
	if h, m := srv.rankHits.Load(), srv.rankMisses.Load(); m != 1 || h != callers-1 {
		t.Fatalf("%d concurrent first rank requests: %d misses, %d hits, want 1 and %d", callers, m, h, callers-1)
	}
	// One AllEffects pass over k variables and one background point: 2 per
	// main effect, 4 per two-factor interaction.
	k := int64(doe.JointSpace().NumVars())
	if want := 2*k + 4*k*(k-1)/2; evals.Load() != want {
		t.Fatalf("%d model evaluations, want %d (one ranking)", evals.Load(), want)
	}
	// Another kind of the same entry is its own memo.
	getBody(t, ts.URL+"/v1/rank?workload=179.art&model=linear")
	if m := srv.rankMisses.Load(); m != 2 {
		t.Fatalf("%d misses after ranking a second kind, want 2", m)
	}
	text := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		fmt.Sprintf("empiricod_rank_cache_hits_total %d\n", callers-1),
		"empiricod_rank_cache_misses_total 2\n",
		"empiricod_measure_batches_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// referenceRank is the rank body as the handler built it before the memo:
// model.TopEffects from scratch, rendered entry by entry.
func referenceRank(t *testing.T, art *Artifacts, kind string, n int) []byte {
	t.Helper()
	m, err := art.Model(kind)
	if err != nil {
		t.Fatal(err)
	}
	out := RankResponse{Workload: art.Workload.Key(), Model: kind}
	for _, e := range model.TopEffects(m, art.Space, art.TrainX, n) {
		out.Effects = append(out.Effects, RankedEffect{Label: e.Label(), Value: e.Value})
	}
	return encodeBody(t, out)
}

// referencePredict is the predict body computed outside the server: points
// decoded by encoding/json's own [][]int64 path, coded, and put through
// model.PredictAll.
func referencePredict(t *testing.T, art *Artifacts, kind string, cached bool, pointsJSON string) []byte {
	t.Helper()
	var raw [][]int64
	if err := json.Unmarshal([]byte(pointsJSON), &raw); err != nil {
		t.Fatal(err)
	}
	m, err := art.Model(kind)
	if err != nil {
		t.Fatal(err)
	}
	coded := make([][]float64, len(raw))
	for i, p := range raw {
		coded[i] = art.Space.Code(doe.Point(p))
	}
	return encodeBody(t, PredictResponse{Model: m.Name(), Cached: cached, Predictions: model.PredictAll(m, coded)})
}

func encodeBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRankAndPredictBodiesMatchReference pins the read path's bytes: rank
// answers of every length are prefixes of one ranking and equal
// model.TopEffects bit for bit, predict answers equal model.PredictAll on
// points decoded by encoding/json, and both stay so after an LRU eviction
// re-resolves the entry from disk and after a reload swaps in a changed
// artifact — whose ranking must be the new model's, not the memoized one.
func TestRankAndPredictBodiesMatchReference(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenArtifacts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := workloads.MustGet("179.art", workloads.Train)
	mcf := workloads.MustGet("181.mcf", workloads.Train)
	for i, w := range []workloads.Workload{art, mcf} {
		if err := store.Save(serializableArtifacts(w, int64(11+i)), "quick"); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Options{Scale: "quick", ArtifactDir: dir, MaxModels: 1, Replica: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// Spelled with the whitespace and -0 a client may send.
	pts := testPoints(3, 5)
	pts[0][0] = 0
	pointsJSON := " [ [-0" + mustJSON(t, pts[0])[2:] + ",\n\t" + mustJSON(t, pts[1]) + " , " + mustJSON(t, pts[2]) + " ]\r\n"
	check := func(stage string, w workloads.Workload) {
		t.Helper()
		ref, err := store.Load(w, "quick")
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"mars-raw", "rbf"} {
			for _, n := range []int{3, 10, 1000} {
				got := getBody(t, fmt.Sprintf("%s/v1/rank?workload=%s&model=%s&n=%d", ts.URL, w.Name, kind, n))
				if want := referenceRank(t, ref, kind, n); !bytes.Equal(got, want) {
					t.Fatalf("%s: rank %s n=%d:\n got %s\nwant %s", stage, kind, n, got, want)
				}
			}
			body := fmt.Sprintf(`{"workload":%q,"model":%q,"points":%s}`, w.Name, kind, pointsJSON)
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// The first predict after a re-resolution reports cached=false;
			// the rank requests above have always resolved the entry already.
			if want := referencePredict(t, ref, kind, true, pointsJSON); !bytes.Equal(got, want) {
				t.Fatalf("%s: predict %s:\n got %s\nwant %s", stage, kind, got, want)
			}
		}
	}
	check("warm boot", art)
	check("evicting art", mcf) // MaxModels 1: art's entry, and its memo, are gone
	check("re-resolved from disk", art)

	before := getBody(t, ts.URL+"/v1/rank?workload=179.art")
	if err := store.Save(serializableArtifacts(art, 99), "quick"); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if after := getBody(t, ts.URL+"/v1/rank?workload=179.art"); bytes.Equal(before, after) {
		t.Fatal("rank body unchanged by the reload of a changed artifact: the old ranking outlived its model")
	}
	check("reloaded", art)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
