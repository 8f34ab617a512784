package serve

import (
	"fmt"
	"net/http"

	"repro/internal/doe"
	"repro/internal/exp"
	"repro/internal/features"
	"repro/internal/model"
	"repro/internal/wlgen"
	"repro/internal/workloads"
)

// Cross-program serving: POST /v1/predict-program accepts raw MiniC source,
// extracts its feature vector server-side, and answers with predictions
// from the pooled cross-program models (exp.BuildCrossDataset +
// exp.FitCrossModels) — no training run, no measurement of the submitted
// program, zero farm dispatches once the cross models are resident. The
// cross models are trained once per scale, on first request, over the seed
// suite plus a wlgen corpus, and kept in a par.Cache: concurrent first
// requests share one training run, a request's context bounds only its own
// wait, and a failed training run is not cached.

// Defaults for the cross-model training corpus.
const (
	DefaultCrossCorpusSeed = 1
	DefaultCrossCorpusSize = 32
	DefaultCrossPointsPer  = 6
)

// crossScales bounds the cross-model cache: one model set per scale (quick,
// default, paper).
const crossScales = 3

// CrossArtifacts bundles the fitted cross-program models with everything
// the predict path needs to build pooled rows.
type CrossArtifacts struct {
	Models map[string]model.Model // "linear" | "mars" | "rbf"
	Space  *doe.Space
	// Corpus and Rows describe the training pool (surfaced in /metrics and
	// useful in responses for capacity planning).
	Corpus int
	Rows   int
}

// trainCross builds the pooled dataset (seed suite + generated corpus) on
// the scale's harness and fits the cross models. Measurements flow through
// the farm, so durable stores, batch grouping and the Measure test seam all
// apply, and interrupted training resumes from cache.
func (s *Server) trainCross(scaleName string) (*CrossArtifacts, error) {
	h, err := s.harnessFor(scaleName)
	if err != nil {
		return nil, err
	}
	seed := s.opts.CrossCorpusSeed
	if seed == 0 {
		seed = DefaultCrossCorpusSeed
	}
	size := s.opts.CrossCorpusSize
	if size == 0 {
		size = DefaultCrossCorpusSize
	}
	pointsPer := s.opts.CrossPointsPer
	if pointsPer == 0 {
		pointsPer = DefaultCrossPointsPer
	}
	ws := make([]workloads.Workload, 0, len(workloads.Names())+size)
	for _, name := range workloads.Names() {
		ws = append(ws, workloads.MustGet(name, workloads.Train))
	}
	for _, p := range wlgen.Corpus(seed, size) {
		ws = append(ws, p.Workload())
	}
	cd, err := h.BuildCrossDataset(ws, pointsPer)
	if err != nil {
		return nil, fmt.Errorf("cross dataset: %w", err)
	}
	models, err := exp.FitCrossModels(cd.Data, s.opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("cross fit: %w", err)
	}
	return &CrossArtifacts{
		Models: models,
		Space:  h.Space(),
		Corpus: len(ws),
		Rows:   cd.Data.Len(),
	}, nil
}

// PredictProgramRequest asks for cross-model predictions for a program the
// service has never measured, submitted as MiniC source text.
type PredictProgramRequest struct {
	// Source is the MiniC program text.
	Source string `json:"source"`
	// Scale selects the cross-model training scale ("" = server default).
	Scale string `json:"scale,omitempty"`
	// Model is the cross-model kind: "linear", "mars" or "rbf" (default).
	Model string `json:"model,omitempty"`
	// Points are raw joint-space points (25 values each).
	Points Points `json:"points"`
}

// PredictProgramResponse carries cross-model predictions in request order.
type PredictProgramResponse struct {
	Model string `json:"model"`
	// Fingerprint is the program's feature-schema fingerprint — the
	// feature-cache key, stable across requests for identical source.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether the cross models were already resident (no
	// training started on this request's behalf).
	Cached bool `json:"cached"`
	// Features is the program's raw extracted feature vector, in
	// features.Names() order.
	Features    []float64 `json:"features"`
	Predictions []float64 `json:"predictions"`
}

func (s *Server) handlePredictProgram(w http.ResponseWriter, r *http.Request) {
	if s.opts.Replica {
		writeErr(w, http.StatusServiceUnavailable,
			"replica serves per-workload predictions only; send program predictions to the writer")
		return
	}
	var req PredictProgramRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "missing source")
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	f, err := features.ExtractSource(req.Source)
	if err != nil {
		// Parse/check/compile failures are client errors: the submitted
		// program is not valid MiniC.
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	scale := s.resolveScale(req.Scale)
	art, cached, err := s.cross.Get(r.Context(), scale, func() (*CrossArtifacts, error) { return s.trainCross(scale) })
	if err != nil {
		writeErr(w, statusFor(err), "cross train: "+err.Error())
		return
	}
	kind := req.Model
	if kind == "" {
		kind = "rbf"
	}
	m, ok := art.Models[kind]
	if !ok {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("unknown cross model %q (linear|mars|rbf)", kind))
		return
	}
	preds := make([]float64, len(req.Points))
	for i, raw := range req.Points {
		p := doe.Point(raw)
		if err := art.Space.Validate(p); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
		preds[i] = m.Predict(exp.CrossRow(f, art.Space.Code(p)))
	}
	writeJSON(w, http.StatusOK, PredictProgramResponse{
		Model:       kind,
		Fingerprint: features.Fingerprint(req.Source),
		Cached:      cached,
		Features:    f,
		Predictions: preds,
	})
}
