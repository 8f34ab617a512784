package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/farm"
	"repro/internal/features"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value serves with defaults: scale
// "default", in-memory measurement store, GOMAXPROCS workers.
type Options struct {
	// Scale names the harness scale measurements and (by default) trained
	// models use: "quick", "default" or "paper".
	Scale string
	// CacheDir, when set, persists measurements durably (journal +
	// checkpoint) and warm-starts model training from prior runs' results.
	CacheDir string
	// Workers bounds the measurement farm and analytics concurrency
	// (0 = GOMAXPROCS).
	Workers int
	// TrainPoints, when > 0, overrides every scale's training-design size —
	// the smoke-test knob that keeps first-request training cheap.
	TrainPoints int
	// MaxModels bounds the registry's resident (workload, scale) entries
	// (0 = 8).
	MaxModels int
	// ArtifactDir, when set, persists every successful fit as a versioned
	// artifact file and warm-boots the registry from the directory, so a
	// restart serves predictions immediately instead of refitting. A
	// directory that cannot be created is logged and ignored (mirroring the
	// measurement cache): persistence is durability, not correctness.
	ArtifactDir string
	// Replica serves /v1/predict and /v1/rank purely from persisted
	// artifacts: the trainer is never called and no farm exists, so
	// /v1/measure and /v1/search answer 503. A (workload, scale) pair with
	// no artifact is 503 with a Retry-After hint — the writer owns
	// training. Requires ArtifactDir.
	Replica bool
	// RatePerSec and RateBurst configure the per-endpoint token buckets
	// (0 = 50 req/s with burst 100). /healthz and /metrics are not limited.
	RatePerSec float64
	RateBurst  float64
	// MaxInFlight bounds concurrently handled requests; excess requests are
	// shed with 429 (0 = 256).
	MaxInFlight int
	// CrossCorpusSeed, CrossCorpusSize and CrossPointsPer shape the
	// cross-program training pool behind /v1/predict-program: the seed suite
	// plus CrossCorpusSize wlgen programs from CrossCorpusSeed, each measured
	// at CrossPointsPer joint points. Zero values take the package defaults.
	CrossCorpusSeed int64
	CrossCorpusSize int
	CrossPointsPer  int
	// Log receives harness/farm progress lines; nil silences them.
	Log io.Writer

	// MakeBackend, when non-nil, builds the server's measurement plane in
	// place of the in-process farm; it is called at most once — cmd/empiricod
	// passes the distributed coordinator's factory here when -workers-addrs
	// or -control-addr is set, turning the daemon into the coordinator of a
	// worker fleet.
	MakeBackend func(opts farm.Options) farm.Backend

	// Measure, when non-nil, replaces the plane's compile+simulate executor
	// (test seam).
	Measure farm.MeasureFunc
	// Trainer, when non-nil, replaces the harness-backed model trainer
	// (test seam).
	Trainer Trainer
	// Batch, when non-nil, replaces the plane's batch measurement behind
	// /v1/measure (test seam).
	Batch BatchFunc
}

// BatchFunc measures one /v1/measure request's points — in production,
// farm.Planner.MeasureBatch on the server's plane. It must return one value
// per point, in order.
type BatchFunc func(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error)

// Server is the HTTP service over the measurement and modeling pipeline.
// Create with New, mount Handler on an http.Server, and Close during
// shutdown after the listener has drained.
type Server struct {
	opts      Options
	registry  *Registry
	artifacts *ArtifactStore // nil without ArtifactDir
	batches   atomic.Int64   // measure batches handed to the plane
	metrics   *Metrics
	limits    map[string]*bucket
	inFlight  atomic.Int64
	maxFlight int64
	start     time.Time
	mux       *http.ServeMux

	plane  *exp.Harness // owns the one measurement plane (harnessFor)
	closed atomic.Bool

	crossMu   sync.Mutex
	cross     map[string]*regEntry[*CrossArtifacts] // per-scale cross-program models
	crossFits atomic.Int64
	crossHits atomic.Int64

	rankHits   atomic.Int64 // rank requests answered from an entry's memo
	rankMisses atomic.Int64 // rankings computed
}

// jointSpace validates measure requests and marchSpace a search's frozen
// block; a Space is immutable once built.
var (
	jointSpace = doe.JointSpace()
	marchSpace = doe.MicroarchSpace()
)

// maxSearchPopulation and maxSearchGenerations bound a /v1/search request.
// The GA allocates its whole population before it first looks at the request
// context, so an unbounded size is an unbounded allocation. 1024 is ≈13× and
// ≈17× what the paper scale runs (80 and 60).
//
// maxMeasurePoints bounds a /v1/measure request by its work, not its bytes:
// the 8 MiB body limit admits ≈160 000 valid points, each a compile and a
// simulation of tens of milliseconds, and a request reaches the planner
// whole. 4096 is ≈8× the 400 + 100 points the paper scale measures per
// program.
const (
	maxSearchPopulation  = 1024
	maxSearchGenerations = 1024
	maxMeasurePoints     = 4096
)

// New builds a server. No farm or model exists until the first request that
// needs one.
func New(opts Options) *Server {
	if opts.Scale == "" {
		opts.Scale = "default"
	}
	if opts.RatePerSec <= 0 {
		opts.RatePerSec = 50
	}
	if opts.RateBurst <= 0 {
		opts.RateBurst = 100
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	s := &Server{
		opts:      opts,
		metrics:   NewMetrics(),
		maxFlight: int64(opts.MaxInFlight),
		start:     time.Now(),
		cross:     map[string]*regEntry[*CrossArtifacts]{},
	}
	own, _ := s.scaleFor("") // an unknown Scale is refused request by request, by the same call
	s.plane = exp.NewHarness(own)
	s.plane.CacheDir, s.plane.Workers, s.plane.Log = opts.CacheDir, opts.Workers, opts.Log
	s.plane.Measure, s.plane.MakeBackend = opts.Measure, opts.MakeBackend
	trainer := opts.Trainer
	if trainer == nil {
		trainer = s.harnessTrainer
	}
	s.registry = NewRegistry(trainer, opts.MaxModels)
	if opts.ArtifactDir != "" {
		store, err := OpenArtifacts(opts.ArtifactDir, opts.Log)
		if err != nil {
			// Same posture as the measurement cache: log and serve without
			// persistence rather than refuse to start. A replica without a
			// store answers every predict with *NoArtifactError (503).
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "artifact store unavailable: %v\n", err)
			}
		} else {
			s.artifacts = store
			s.registry.UseStore(store, opts.Replica, opts.Log)
			if n, skipped, err := s.registry.Reload(); err != nil {
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "artifact warm boot failed: %v\n", err)
				}
			} else if opts.Log != nil && (n > 0 || skipped > 0) {
				fmt.Fprintf(opts.Log, "warm boot: %d artifacts loaded, %d skipped\n", n, skipped)
			}
		}
	} else if opts.Replica {
		// Replica with nowhere to read artifacts from: still boots (health
		// checks work) but every predict reports no artifact.
		s.registry.UseStore(nil, true, opts.Log)
	}
	if s.opts.Batch == nil {
		s.opts.Batch = s.farmBatch
	}

	s.limits = map[string]*bucket{}
	s.mux = http.NewServeMux()
	s.route("POST /v1/predict", "predict", s.handlePredict)
	s.route("POST /v1/predict-program", "predict-program", s.handlePredictProgram)
	s.route("POST /v1/measure", "measure", s.handleMeasure)
	s.route("POST /v1/search", "search", s.handleSearch)
	s.route("GET /v1/rank", "rank", s.handleRank)
	s.route("POST /v1/reload", "reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route mounts an API endpoint behind its token bucket and the shared
// in-flight limiter.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	b := newBucket(s.opts.RatePerSec, s.opts.RateBurst)
	s.limits[name] = b
	s.mux.HandleFunc(pattern, s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		if !b.allow(time.Now()) {
			s.metrics.RateLimited()
			writeErr(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		if n := s.inFlight.Load(); n > s.maxFlight {
			s.metrics.Shed()
			writeErr(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
		h(w, r)
	}))
}

// instrument wraps a handler with the in-flight gauge and request metrics.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.Observe(name, sw.code, time.Since(start))
	}
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer (the search stream needs it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// scaleFor resolves a request's scale name (empty means the server default)
// with the TrainPoints override applied.
func (s *Server) scaleFor(name string) (exp.Scale, error) {
	if name == "" {
		name = s.opts.Scale
	}
	sc, err := exp.ScaleByName(name)
	if err != nil {
		return exp.Scale{}, err
	}
	if s.opts.TrainPoints > 0 {
		sc.TrainPoints = s.opts.TrainPoints
	}
	return sc, nil
}

// harnessFor returns the harness a request at the named scale runs on. A
// daemon has one measurement plane — the farm or the coordinator MakeBackend
// builds, its store and its control listener — owned by the harness at the
// daemon's own scale and built by the first measurement. Measurement keys
// carry no scale, so a request at another scale gets a harness that borrows
// that plane for its designs and GA sizes (exp.Harness.AtScale): /v1/measure
// and every scale's training see the same points, and none is simulated twice.
func (s *Server) harnessFor(scaleName string) (*exp.Harness, error) {
	sc, err := s.scaleFor(scaleName)
	if err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, fmt.Errorf("serve: server closed")
	}
	if sc.Name == s.plane.Scale.Name {
		return s.plane, nil
	}
	return s.plane.AtScale(sc), nil
}

// harnessTrainer is the production Trainer: fit every model kind on the
// scale's training design measured on the server's plane (and so
// warm-started from the durable store when CacheDir is set).
func (s *Server) harnessTrainer(ctx context.Context, w workloads.Workload, scale string) (*Artifacts, error) {
	h, err := s.harnessFor(scale)
	if err != nil {
		return nil, err
	}
	models, trainX, err := h.FitModels(w)
	if err != nil {
		return nil, err
	}
	return &Artifacts{Workload: w, Space: h.Space(), Models: models, TrainX: trainX}, nil
}

// farmBatch is the production BatchFunc: one MeasureBatch on the server's
// plane.
func (s *Server) farmBatch(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
	h, err := s.harnessFor("")
	if err != nil {
		return nil, err
	}
	return h.Farm().MeasureBatch(ctx, w, pts, resp)
}

// Drain stops leasing new measurement groups to remote workers and waits
// (bounded by ctx) for in-flight leases to finish; leases still running at
// the deadline are cancelled and requeued. Call between the HTTP listener's
// Shutdown and Close, so SIGTERM never abandons a lease mid-flight without
// first giving it a chance to land in the store. With the in-process farm
// this is a no-op — its Close drains internally.
func (s *Server) Drain(ctx context.Context) error { return s.plane.Drain(ctx) }

// Close checkpoints and drains the measurement plane. Call after the HTTP
// listener has stopped accepting (http.Server.Shutdown), so no handler is
// mid-measurement.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.plane.SaveCache()
	if cerr := s.plane.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- request/response types ----

// PredictRequest asks for model predictions at raw design points.
type PredictRequest struct {
	Workload string `json:"workload"`
	// Class is the input class, "train" (default) or "ref".
	Class string `json:"class,omitempty"`
	// Scale selects the training scale ("" = server default).
	Scale string `json:"scale,omitempty"`
	// Model is the kind: "linear", "mars", "rbf" (default), "mars-raw".
	Model string `json:"model,omitempty"`
	// Points are raw joint-space points (25 values each).
	Points Points `json:"points"`
}

// PredictResponse carries predictions in request order.
type PredictResponse struct {
	Model string `json:"model"`
	// Cached reports whether the request was answered from an
	// already-trained registry entry (no new fit started on its behalf).
	Cached      bool      `json:"cached"`
	Predictions []float64 `json:"predictions"`
}

// MeasureRequest asks for ground-truth measurements (compile + simulate).
type MeasureRequest struct {
	Workload string `json:"workload"`
	Class    string `json:"class,omitempty"`
	// Response is "cycles" (default) or "energy".
	Response string `json:"response,omitempty"`
	Points   Points `json:"points"`
	// TimeoutMS bounds the request server-side (on top of the client's
	// connection lifetime, which also cancels it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MeasureResponse carries measured values in request order.
type MeasureResponse struct {
	Response string    `json:"response"`
	Values   []float64 `json:"values"`
}

// SearchRequest runs the model-based GA flag search with a frozen
// microarchitecture.
type SearchRequest struct {
	Workload string `json:"workload"`
	Class    string `json:"class,omitempty"`
	Scale    string `json:"scale,omitempty"`
	Model    string `json:"model,omitempty"`
	// March is the frozen microarchitectural block (11 raw values); empty
	// means the paper's typical configuration.
	March       []int64 `json:"march,omitempty"`
	Population  int     `json:"population,omitempty"`
	Generations int     `json:"generations,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// SearchProgress is one streamed generation record; the final record has
// Done set and carries the totals.
type SearchProgress struct {
	Gen       int       `json:"gen"`
	Predicted float64   `json:"predicted"`
	Best      doe.Point `json:"best"`
	Done      bool      `json:"done,omitempty"`
	Evals     int       `json:"evals,omitempty"`
}

// RankedEffect is one entry of the rank endpoint's response.
type RankedEffect struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// RankResponse lists the largest-magnitude effects of the fitted model.
type RankResponse struct {
	Workload string         `json:"workload"`
	Model    string         `json:"model"`
	Effects  []RankedEffect `json:"effects"`
}

// ---- handlers ----

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	wl, err := resolveWorkload(req.Workload, req.Class)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	art, cached, err := s.registry.Get(r.Context(), wl, s.resolveScale(req.Scale))
	if err != nil {
		writeResolveErr(w, err)
		return
	}
	m, err := art.Model(req.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	preds, err := s.predictAll(art, m, req.Points)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Model: m.Name(), Cached: cached, Predictions: preds})
}

// predictSerialMax bounds the batch size the pooled serial path handles;
// larger batches amortize the goroutine fan-out, so they take the parallel
// path.
const predictSerialMax = 256

// predictPool recycles the coded point of the predict hot path, so
// steady-state point traffic allocates only the response slice.
var predictPool = sync.Pool{New: func() any { return new([]float64) }}

// predictAll evaluates m at raw points. Small batches run serially over one
// pooled coded point; large batches code up front and fan out. Both paths
// run the identical coding arithmetic and the same m.Predict, so predictions
// are bit-identical regardless of which one a request takes.
func (s *Server) predictAll(art *Artifacts, m model.Model, raw [][]int64) ([]float64, error) {
	if len(raw) > predictSerialMax {
		coded, err := codePoints(art.Space, raw)
		if err != nil {
			return nil, err
		}
		return model.PredictAllParallel(m, coded, s.opts.Workers), nil
	}
	coded := predictPool.Get().(*[]float64)
	defer predictPool.Put(coded)
	preds := make([]float64, len(raw))
	for i, rp := range raw {
		p := doe.Point(rp)
		if err := art.Space.Validate(p); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		*coded = art.Space.CodeInto(p, *coded)
		preds[i] = m.Predict(*coded)
	}
	return preds, nil
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if s.opts.Replica {
		writeErr(w, http.StatusServiceUnavailable,
			"replica serves predictions only; send measure requests to the writer")
		return
	}
	var req MeasureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	wl, err := resolveWorkload(req.Workload, req.Class)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := resolveResponse(req.Response)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Response == "" {
		req.Response = "cycles"
	}
	if len(req.Points) > maxMeasurePoints {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("%d points above the limit of %d", len(req.Points), maxMeasurePoints))
		return
	}
	pts := make([]doe.Point, len(req.Points))
	for i, raw := range req.Points {
		pts[i] = doe.Point(raw)
		if err := jointSpace.Validate(pts[i]); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
	}
	if len(pts) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// Concurrent requests meet in the plane's planner (farm.Planner.Run), on
	// this goroutine: there is no queue and no merging here.
	s.batches.Add(1)
	vals, err := s.opts.Batch(ctx, wl, pts, resp)
	if err != nil {
		writeErr(w, statusFor(err), "measure: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, MeasureResponse{Response: req.Response, Values: vals})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.opts.Replica {
		writeErr(w, http.StatusServiceUnavailable,
			"replica serves predictions only; send search requests to the writer")
		return
	}
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	wl, err := resolveWorkload(req.Workload, req.Class)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	march := req.March
	if len(march) == 0 {
		march = doe.FromConfig(sim.DefaultConfig())
	}
	// An out-of-range value (0 in a log2-coded variable, say) codes to NaN or
	// ±Inf, which the JSON stream cannot carry.
	if err := marchSpace.Validate(doe.Point(march)); err != nil {
		writeErr(w, http.StatusBadRequest, "march: "+err.Error())
		return
	}
	if req.Population > maxSearchPopulation || req.Generations > maxSearchGenerations {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("population %d or generations %d above the limit of %d and %d",
			req.Population, req.Generations, maxSearchPopulation, maxSearchGenerations))
		return
	}
	scaleName := s.resolveScale(req.Scale)
	art, _, err := s.registry.Get(r.Context(), wl, scaleName)
	if err != nil {
		writeResolveErr(w, err)
		return
	}
	m, err := art.Model(req.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, err := s.scaleFor(scaleName)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	opt := searchOptions(req, sc, s.opts.Workers)
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	// Stream one JSON line per generation; a client that disconnects
	// cancels r.Context(), which stops the GA at the next generation.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	opt.Progress = func(gen int, best doe.Point, predicted float64) {
		enc.Encode(SearchProgress{Gen: gen, Predicted: predicted, Best: best})
		flush()
	}
	res, err := search.FindCompilerSettingsCtx(
		r.Context(), art.Space, m, march, opt, rand.New(rand.NewSource(seed)))
	if err != nil {
		// Headers are sent; the truncated stream (no done record) tells the
		// client the search did not complete.
		return
	}
	enc.Encode(SearchProgress{
		Gen: opt.Generations, Predicted: res.Predicted, Best: res.Point,
		Done: true, Evals: res.Evals,
	})
	flush()
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wl, err := resolveWorkload(q.Get("workload"), q.Get("class"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := 10
	if v := q.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
	}
	art, _, err := s.registry.Get(r.Context(), wl, s.resolveScale(q.Get("scale")))
	if err != nil {
		writeResolveErr(w, err)
		return
	}
	kind := q.Get("model")
	if kind == "" {
		// Raw-scale MARS coefficients are in cycles — the interpretable
		// ranking the paper's Table 4 reports.
		kind = "mars-raw"
	}
	m, err := art.Model(kind)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	effects, hit := art.ranking(kind, m)
	if hit {
		s.rankHits.Add(1)
	} else {
		s.rankMisses.Add(1)
	}
	if n > len(effects) {
		n = len(effects)
	}
	writeJSON(w, http.StatusOK, RankResponse{Workload: wl.Key(), Model: kind, Effects: effects[:n]})
}

// handleReload rescans the artifact directory and swaps every decodable
// artifact into the registry copy-on-write — in-flight requests finish on
// the entries they resolved; new requests see the reloaded ones. Works on
// writer and replica alike; cmd/empiricod also triggers it on SIGHUP.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	loaded, skipped, err := s.ReloadArtifacts()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"loaded": loaded, "skipped": skipped})
}

// ReloadArtifacts rescans the artifact store into the registry (the SIGHUP
// and POST /v1/reload entry point). It errors when no artifact directory is
// configured.
func (s *Server) ReloadArtifacts() (loaded, skipped int, err error) {
	if s.artifacts == nil {
		return 0, 0, fmt.Errorf("serve: no artifact directory configured")
	}
	return s.registry.Reload()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w)

	fmt.Fprintln(w, "# HELP empiricod_in_flight Requests currently being handled.")
	fmt.Fprintln(w, "# TYPE empiricod_in_flight gauge")
	fmt.Fprintf(w, "empiricod_in_flight %d\n", s.inFlight.Load())

	rs := s.registry.Stats()
	fmt.Fprintln(w, "# HELP empiricod_models_cached Fitted model sets resident in the registry.")
	fmt.Fprintln(w, "# TYPE empiricod_models_cached gauge")
	fmt.Fprintf(w, "empiricod_models_cached %d\n", rs.Cached)
	fmt.Fprintln(w, "# HELP empiricod_model_fits_total Training runs started.")
	fmt.Fprintln(w, "# TYPE empiricod_model_fits_total counter")
	fmt.Fprintf(w, "empiricod_model_fits_total %d\n", rs.Fits)
	fmt.Fprintf(w, "empiricod_model_registry_hits_total %d\n", rs.Hits)
	fmt.Fprintf(w, "empiricod_model_registry_evictions_total %d\n", rs.Evictions)
	fmt.Fprintln(w, "# HELP empiricod_rank_cache_hits_total Rank requests answered from a cached ranking.")
	fmt.Fprintln(w, "# TYPE empiricod_rank_cache_hits_total counter")
	fmt.Fprintf(w, "empiricod_rank_cache_hits_total %d\n", s.rankHits.Load())
	fmt.Fprintln(w, "# HELP empiricod_rank_cache_misses_total Effect rankings computed (first rank request per model set and kind).")
	fmt.Fprintln(w, "# TYPE empiricod_rank_cache_misses_total counter")
	fmt.Fprintf(w, "empiricod_rank_cache_misses_total %d\n", s.rankMisses.Load())
	s.crossMu.Lock()
	crossCached := len(s.cross)
	s.crossMu.Unlock()
	fmt.Fprintln(w, "# HELP empiricod_cross_models_cached Cross-program model sets resident, one per scale.")
	fmt.Fprintln(w, "# TYPE empiricod_cross_models_cached gauge")
	fmt.Fprintf(w, "empiricod_cross_models_cached %d\n", crossCached)
	fmt.Fprintln(w, "# HELP empiricod_cross_fits_total Cross-program training runs started.")
	fmt.Fprintln(w, "# TYPE empiricod_cross_fits_total counter")
	fmt.Fprintf(w, "empiricod_cross_fits_total %d\n", s.crossFits.Load())
	fmt.Fprintf(w, "empiricod_cross_hits_total %d\n", s.crossHits.Load())

	fh, fm := features.CacheStats()
	fmt.Fprintln(w, "# HELP empiricod_feature_cache_hits_total Feature extractions answered from the fingerprint cache.")
	fmt.Fprintln(w, "# TYPE empiricod_feature_cache_hits_total counter")
	fmt.Fprintf(w, "empiricod_feature_cache_hits_total %d\n", fh)
	fmt.Fprintln(w, "# HELP empiricod_feature_cache_misses_total Feature extractions that ran the full pipeline.")
	fmt.Fprintln(w, "# TYPE empiricod_feature_cache_misses_total counter")
	fmt.Fprintf(w, "empiricod_feature_cache_misses_total %d\n", fm)

	fmt.Fprintln(w, "# HELP empiricod_artifact_loads_total Model artifacts loaded from disk (boot, lazy miss, reload).")
	fmt.Fprintln(w, "# TYPE empiricod_artifact_loads_total counter")
	fmt.Fprintf(w, "empiricod_artifact_loads_total %d\n", rs.Loads)
	fmt.Fprintf(w, "empiricod_artifact_persists_total %d\n", rs.Persists)
	fmt.Fprintf(w, "empiricod_artifact_corrupt_total %d\n", rs.Corrupt)
	fmt.Fprintf(w, "empiricod_artifact_reloads_total %d\n", rs.Reloads)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintln(w, "# HELP empiricod_goroutines Live goroutines.")
	fmt.Fprintln(w, "# TYPE empiricod_goroutines gauge")
	fmt.Fprintf(w, "empiricod_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintln(w, "# HELP empiricod_heap_inuse_bytes Bytes in in-use heap spans.")
	fmt.Fprintln(w, "# TYPE empiricod_heap_inuse_bytes gauge")
	fmt.Fprintf(w, "empiricod_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintln(w, "# HELP empiricod_gc_pause_seconds_total Cumulative stop-the-world GC pause.")
	fmt.Fprintln(w, "# TYPE empiricod_gc_pause_seconds_total counter")
	fmt.Fprintf(w, "empiricod_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "empiricod_gc_cycles_total %d\n", ms.NumGC)

	fmt.Fprintln(w, "# HELP empiricod_measure_batches_total Measure batches handed to the measurement plane.")
	fmt.Fprintln(w, "# TYPE empiricod_measure_batches_total counter")
	fmt.Fprintf(w, "empiricod_measure_batches_total %d\n", s.batches.Load())

	// Farm gauges: one block, for the server's one plane, once it has run
	// measurements. The scale label is the daemon's.
	name := s.plane.Scale.Name
	if st := s.plane.FarmStats(); st.Workers > 0 {
		emit := func(metric string, v int64) {
			fmt.Fprintf(w, "empiricod_farm_%s{scale=%q} %d\n", metric, name, v)
		}
		emit("workers", int64(st.Workers))
		emit("cache_hits_total", st.CacheHits)
		emit("cache_misses_total", st.CacheMisses)
		emit("coalesced_total", st.Coalesced)
		emit("sims_total", st.SimsExecuted)
		emit("instrs_total", st.InstrsSimulated)
		emit("retries_total", st.Retries)
		emit("failures_total", st.Failures)
		emit("compile_cache_hits_total", st.CompileCacheHits)
		emit("compile_cache_misses_total", st.CompileCacheMisses)
		emit("trace_shared_sims_total", st.TraceSharedSims)
		emit("binary_groups_total", st.BinaryGroups)
		emit("groups_dispatched_total", st.GroupsDispatched)
		emit("groups_hedged_total", st.GroupsHedged)
		emit("groups_requeued_total", st.GroupsRequeued)
		emit("workers_live", st.WorkersLive)
		emit("worker_local_hits_total", st.WorkerLocalHits)
		emit("store_merges_total", st.StoreMerges)
		emit("store_merge_conflicts_total", st.StoreMergeConflicts)
		// Per-worker series for the distributed plane (in-process pool
		// workers carry no address and are skipped — the aggregate gauges
		// above already cover them).
		for _, pw := range st.PerWorker {
			if pw.Addr == "" {
				continue
			}
			emitW := func(metric string, v int64) {
				fmt.Fprintf(w, "empiricod_farm_worker_%s{scale=%q,worker=%q} %d\n", metric, name, pw.Addr, v)
			}
			emitW("slots", pw.Slots)
			emitW("in_flight", pw.InFlight)
			emitW("groups_total", pw.Groups)
			emitW("local_hits_total", pw.LocalHits)
		}
		emit("blocks_translated_total", st.BlocksTranslated)
		emit("translated_instrs_total", st.TranslatedInstrs)
		emit("slow_path_entries_total", st.SlowPathEntries)
	}
}

// ---- helpers ----

// resolveScale maps an empty request scale to the server default.
func (s *Server) resolveScale(name string) string {
	if name == "" {
		return s.opts.Scale
	}
	return name
}

func resolveWorkload(name, class string) (workloads.Workload, error) {
	if name == "" {
		return workloads.Workload{}, fmt.Errorf("serve: missing workload")
	}
	cls := workloads.Train
	switch class {
	case "", "train":
	case "ref":
		cls = workloads.Ref
	default:
		return workloads.Workload{}, fmt.Errorf("serve: unknown input class %q (train|ref)", class)
	}
	return workloads.Get(name, cls)
}

func resolveResponse(name string) (farm.Response, error) {
	switch name {
	case "", "cycles":
		return farm.Cycles, nil
	case "energy":
		return farm.Energy, nil
	}
	return 0, fmt.Errorf("serve: unknown response %q (cycles|energy)", name)
}

func codePoints(space *doe.Space, raw [][]int64) ([][]float64, error) {
	coded := make([][]float64, len(raw))
	for i, rp := range raw {
		p := doe.Point(rp)
		if err := space.Validate(p); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		coded[i] = space.Code(p)
	}
	return coded, nil
}

func statusFor(err error) int {
	switch err {
	case context.Canceled:
		return 499 // client closed request (nginx convention)
	case context.DeadlineExceeded:
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// writeResolveErr maps a registry resolution failure to a response. A
// replica miss (*NoArtifactError) is 503 with a Retry-After hint: the writer
// owns training, so the artifact appears once it has fitted the pair —
// retrying is the correct client behavior, not an error to propagate.
func writeResolveErr(w http.ResponseWriter, err error) {
	var na *NoArtifactError
	if errors.As(err, &na) {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeErr(w, statusFor(err), "train: "+err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func searchOptions(req SearchRequest, sc exp.Scale, workers int) search.GAOptions {
	opt := search.GAOptions{
		Population:  req.Population,
		Generations: req.Generations,
		Workers:     workers,
	}
	if opt.Population <= 0 {
		opt.Population = sc.GAPopulation
	}
	if opt.Generations <= 0 {
		opt.Generations = sc.GAGenerations
	}
	return opt
}
