package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/doe"
	"repro/internal/model"
	"repro/internal/workloads"
)

// serializableArtifacts builds a deterministic artifact set from literal
// models of every production kind (the registry's stubArtifacts uses a
// funcModel, which cannot round-trip through the codec). Different seeds
// give different coefficients, so tests can tell artifact versions apart by
// their predictions.
func serializableArtifacts(w workloads.Workload, seed int64) *Artifacts {
	space := doe.JointSpace()
	n := space.NumVars()
	rng := rand.New(rand.NewSource(seed))
	coef := make([]float64, doe.ExpandInteractions.NumTerms(n))
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	lin := &model.LinearModel{Expansion: doe.ExpandInteractions, Coef: coef}
	mars := &model.MARSModel{
		Bases: []model.Basis{
			{}, // intercept
			{Factors: []model.Hinge{{Var: 0, T: 0.1, Pos: true}}},
			{Factors: []model.Hinge{{Var: 3, T: -0.2, Pos: false}, {Var: 7, T: 0.3, Pos: true}}},
		},
		Coef: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
	}
	centers := make([][]float64, 4)
	radii := make([]float64, len(centers))
	wts := make([]float64, 1+len(centers))
	wts[0] = rng.NormFloat64()
	for i := range centers {
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*2 - 1
		}
		centers[i] = c
		radii[i] = 0.5 + rng.Float64()
		wts[1+i] = rng.NormFloat64()
	}
	rbf := &model.RBFModel{Kernel: model.Multiquadric, Centers: centers, Radii: radii, W: wts}
	trainX := make([][]float64, 8)
	for i := range trainX {
		trainX[i] = space.Code(space.RandomPoint(rng))
	}
	return &Artifacts{
		Workload: w,
		Space:    space,
		Models: map[string]model.Model{
			"linear":   lin,
			"mars":     model.LogModel{Inner: mars},
			"rbf":      model.LogModel{Inner: &model.HybridRBFModel{Trend: mars, Residual: rbf}},
			"mars-raw": mars,
		},
		TrainX: trainX,
	}
}

var artifactKinds = []string{"linear", "mars", "rbf", "mars-raw"}

func TestArtifactStoreRoundTripBitIdentical(t *testing.T) {
	store, err := OpenArtifacts(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	art := serializableArtifacts(w, 7)
	if err := store.Save(art, "quick"); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(w, "quick")
	if err != nil {
		t.Fatal(err)
	}
	probes := testPoints(25, 9)
	for _, kind := range artifactKinds {
		orig, _ := art.Model(kind)
		got, err := loaded.Model(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i, rp := range probes {
			x := loaded.Space.Code(doe.Point(rp))
			if want, have := orig.Predict(x), got.Predict(x); want != have {
				t.Fatalf("%s: probe %d: loaded model predicts %v, original %v", kind, i, have, want)
			}
		}
	}
	if len(loaded.TrainX) != len(art.TrainX) {
		t.Fatalf("TrainX rows %d, want %d", len(loaded.TrainX), len(art.TrainX))
	}

	// A pair that was never saved is a typed miss, not a corrupt file.
	other := workloads.MustGet("181.mcf", workloads.Train)
	_, err = store.Load(other, "quick")
	var na *NoArtifactError
	if !errors.As(err, &na) {
		t.Fatalf("missing artifact error = %v, want *NoArtifactError", err)
	}
}

func TestArtifactFingerprint(t *testing.T) {
	store, err := OpenArtifacts(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	art := serializableArtifacts(w, 3)
	if err := store.Save(art, "quick"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(w, "quick"))
	if err != nil {
		t.Fatal(err)
	}
	var file artifactFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	fp := file.Fingerprint
	if fp.Workload != "179.art" || fp.Class != "train" || fp.Scale != "quick" {
		t.Fatalf("fingerprint identity: %+v", fp)
	}
	if fp.Points != len(art.TrainX) || !strings.HasPrefix(fp.DatasetHash, "fnv64a:") {
		t.Fatalf("fingerprint provenance: %+v", fp)
	}
	if len(fp.Kinds) != len(artifactKinds) {
		t.Fatalf("fingerprint kinds %v", fp.Kinds)
	}
	if file.Schema != artifactSchema {
		t.Fatalf("schema %d", file.Schema)
	}
}

// TestWarmBootServesWithoutFit is the acceptance criterion: a fresh server
// pointed at a populated artifact directory answers /v1/predict correctly
// with the fit counter still at zero, and its predictions are bit-identical
// to the server that trained the models.
func TestWarmBootServesWithoutFit(t *testing.T) {
	dir := t.TempDir()
	w := workloads.MustGet("179.art", workloads.Train)
	probes := testPoints(5, 11)
	req := PredictRequest{Workload: "179.art", Points: probes}

	writer := New(Options{
		Scale:       "quick",
		ArtifactDir: dir,
		Trainer: func(ctx context.Context, wl workloads.Workload, scale string) (*Artifacts, error) {
			return serializableArtifacts(wl, 21), nil
		},
	})
	ts := httptest.NewServer(writer.Handler())
	want := predictVia(t, ts.URL, req)
	ts.Close()
	writer.Close()
	if _, err := os.Stat(writer.artifacts.Path(w, "quick")); err != nil {
		t.Fatalf("writer did not persist the artifact: %v", err)
	}

	warm := New(Options{
		Scale:       "quick",
		ArtifactDir: dir,
		Trainer: func(ctx context.Context, wl workloads.Workload, scale string) (*Artifacts, error) {
			t.Error("warm-booted server retrained")
			return serializableArtifacts(wl, 99), nil
		},
	})
	ts2 := httptest.NewServer(warm.Handler())
	defer ts2.Close()
	defer warm.Close()
	got := predictVia(t, ts2.URL, req)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d: warm boot %v != writer %v", i, got[i], want[i])
		}
	}
	if st := warm.registry.Stats(); st.Fits != 0 || st.Loads == 0 {
		t.Fatalf("warm boot stats: %+v (want 0 fits, >0 loads)", st)
	}
	mbody, _ := io.ReadAll(mustGet(t, ts2.URL+"/metrics").Body)
	if !strings.Contains(string(mbody), "empiricod_model_fits_total 0") {
		t.Fatal("metrics do not pin the fit counter at 0 after warm boot")
	}
}

// TestReplicaServesFromArtifactsOnly pins replica semantics: bit-identical
// predictions for persisted pairs, 503 with a retry hint for unknown pairs,
// and 503 for the farm-backed endpoints — the trainer must never run.
func TestReplicaServesFromArtifactsOnly(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenArtifacts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	art := serializableArtifacts(w, 31)
	if err := store.Save(art, "quick"); err != nil {
		t.Fatal(err)
	}

	replica := New(Options{
		Scale:       "quick",
		ArtifactDir: dir,
		Replica:     true,
		Trainer: func(ctx context.Context, wl workloads.Workload, scale string) (*Artifacts, error) {
			t.Error("replica called the trainer")
			return nil, errors.New("replica must not train")
		},
	})
	ts := httptest.NewServer(replica.Handler())
	defer ts.Close()
	defer replica.Close()

	probes := testPoints(4, 13)
	got := predictVia(t, ts.URL, PredictRequest{Workload: "179.art", Points: probes})
	m, _ := art.Model("rbf")
	for i, rp := range probes {
		if want := m.Predict(art.Space.Code(doe.Point(rp))); want != got[i] {
			t.Fatalf("replica prediction %d: %v, want %v", i, got[i], want)
		}
	}

	// An untrained pair: 503 + Retry-After, never a fit.
	resp := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Workload: "181.mcf", Points: probes})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unknown pair on replica: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("replica 503 has no Retry-After hint")
	}

	// The farm-backed endpoints are writer-only.
	mr := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Workload: "179.art", Points: probes})
	mr.Body.Close()
	if mr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica measure: status %d, want 503", mr.StatusCode)
	}
	sr := postJSON(t, ts.URL+"/v1/search", SearchRequest{Workload: "179.art", Population: 4, Generations: 1})
	sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica search: status %d, want 503", sr.StatusCode)
	}

	// Rank needs only the artifact: it works on a replica.
	rr := mustGet(t, ts.URL+"/v1/rank?workload=179.art&n=3")
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("replica rank: status %d", rr.StatusCode)
	}
}

// TestReloadPicksUpNewArtifacts drives the zero-downtime path end to end: a
// writer persists a new model version, the replica's POST /v1/reload swaps
// it in, and predictions change without a restart.
func TestReloadPicksUpNewArtifacts(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenArtifacts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	v1 := serializableArtifacts(w, 41)
	if err := store.Save(v1, "quick"); err != nil {
		t.Fatal(err)
	}
	replica := New(Options{Scale: "quick", ArtifactDir: dir, Replica: true})
	ts := httptest.NewServer(replica.Handler())
	defer ts.Close()
	defer replica.Close()

	probe := testPoints(1, 17)
	req := PredictRequest{Workload: "179.art", Points: probe}
	before := predictVia(t, ts.URL, req)

	v2 := serializableArtifacts(w, 42)
	if err := store.Save(v2, "quick"); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var rl map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	if rl["loaded"] != 1 || rl["skipped"] != 0 {
		t.Fatalf("reload report %v", rl)
	}

	after := predictVia(t, ts.URL, req)
	m2, _ := v2.Model("rbf")
	want := m2.Predict(v2.Space.Code(doe.Point(probe[0])))
	if after[0] != want {
		t.Fatalf("post-reload prediction %v, want new version's %v", after[0], want)
	}
	if before[0] == after[0] {
		t.Fatal("reload did not change the served model")
	}
}

// corruptions damage a saved artifact file the ways a disk or a writer can:
// torn mid-JSON, and two bit flips that leave valid JSON whose models index
// outside the artifact's 25-variable space.
var corruptions = []struct {
	name   string
	damage func([]byte) []byte
}{
	{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	{"var 99", func(b []byte) []byte {
		return regexp.MustCompile(`"Var":\d+`).ReplaceAll(b, []byte(`"Var":99`))
	}},
	{"short centre", func(b []byte) []byte {
		return regexp.MustCompile(`"Centers":\[\[[^,\]]*,`).ReplaceAll(b, []byte(`"Centers":[[`))
	}},
}

// TestCorruptArtifactSkippedAtBoot: a damaged artifact file must not abort
// the boot or load — the good artifact serves from disk, the damaged pair
// lazily refits on first request (writer) or answers 503 with a retry hint
// (replica).
func TestCorruptArtifactSkippedAtBoot(t *testing.T) {
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) { corruptArtifactSkipped(t, c.damage) })
	}
}

func corruptArtifactSkipped(t *testing.T, damage func([]byte) []byte) {
	dir := t.TempDir()
	store, err := OpenArtifacts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := workloads.MustGet("179.art", workloads.Train)
	bad := workloads.MustGet("181.mcf", workloads.Train)
	if err := store.Save(serializableArtifacts(good, 51), "quick"); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(serializableArtifacts(bad, 52), "quick"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(bad, "quick"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := damage(data)
	if bytes.Equal(damaged, data) {
		t.Fatal("the damage changed nothing")
	}
	if err := os.WriteFile(store.Path(bad, "quick"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	var fits int
	srv := New(Options{
		Scale:       "quick",
		ArtifactDir: dir,
		Trainer: func(ctx context.Context, wl workloads.Workload, scale string) (*Artifacts, error) {
			fits++
			return serializableArtifacts(wl, 53), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	if st := srv.registry.Stats(); st.Loads != 1 || st.Corrupt != 1 {
		t.Fatalf("boot stats %+v, want 1 load and 1 corrupt skip", st)
	}
	probes := testPoints(2, 19)
	predictVia(t, ts.URL, PredictRequest{Workload: "179.art", Points: probes})
	if fits != 0 {
		t.Fatalf("good artifact refit after corrupt sibling: %d fits", fits)
	}
	// First request for the damaged pair refits and re-persists it.
	predictVia(t, ts.URL, PredictRequest{Workload: "181.mcf", Points: probes})
	if fits != 1 {
		t.Fatalf("corrupt pair: %d fits, want 1 lazy refit", fits)
	}
	if _, err := store.Load(bad, "quick"); err != nil {
		t.Fatalf("refit did not overwrite the damaged artifact: %v", err)
	}

	// A replica over the same damaged file reports the pair unavailable.
	replica := New(Options{Scale: "quick", ArtifactDir: t.TempDir(), Replica: true})
	rts := httptest.NewServer(replica.Handler())
	defer rts.Close()
	defer replica.Close()
	if err := os.WriteFile(replica.artifacts.Path(bad, "quick"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, rts.URL+"/v1/predict", PredictRequest{Workload: "181.mcf", Points: probes})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("replica over a damaged artifact: status %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// FuzzArtifactLoad: whatever bytes sit in an artifact file, Load answers a
// typed error or artifacts whose every model predicts a finite value at
// every training row. The seed corpus is a valid artifact and the damaged
// forms of corruptions plus a schema skew.
func FuzzArtifactLoad(f *testing.F) {
	w := workloads.MustGet("181.mcf", workloads.Train)
	store, err := OpenArtifacts(f.TempDir(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.Path(w, "quick"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		art, err := store.Load(w, "quick")
		if err != nil {
			var corrupt *CorruptArtifactError
			if !errors.As(err, &corrupt) {
				t.Fatalf("Load error %T is not typed: %v", err, err)
			}
			return
		}
		for kind, m := range art.Models {
			for i, row := range art.TrainX {
				if y := m.Predict(row); math.IsNaN(y) || math.IsInf(y, 0) {
					t.Fatalf("%s predicts %v at train_x row %d", kind, y, i)
				}
			}
		}
	})
}

// TestArtifactSchemaSkew pins version gating at the store level: a file with
// an unknown wrapper schema is corrupt, and LoadAll skips it. A torn
// *.model.json.tmp left by an interrupted Save is not an artifact: LoadAll
// passes over it without counting it corrupt.
func TestArtifactSchemaSkew(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenArtifacts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.MustGet("179.art", workloads.Train)
	if err := store.Save(serializableArtifacts(w, 61), "quick"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(w, "quick"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["schema"] = json.RawMessage("99")
	skewed, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(w, "quick"), skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Load(w, "quick")
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) || !strings.Contains(corrupt.Reason, "schema version 99") {
		t.Fatalf("schema skew error = %v, want *CorruptArtifactError naming version 99", err)
	}
	if err := os.WriteFile(store.Path(w, "default")+".tmp", []byte(`{"schema":1,"fing`), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, skipped, err := store.LoadAll()
	if err != nil || len(arts) != 0 || skipped != 1 {
		t.Fatalf("LoadAll over skewed dir: %d loaded, %d skipped, err %v", len(arts), skipped, err)
	}
}

// ---- helpers ----

func predictVia(t *testing.T, baseURL string, req PredictRequest) []float64 {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/predict", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr.Predictions
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
