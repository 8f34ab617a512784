package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// serveMix is the serving plane under reads beside writes. The server
// warm-boots from artifacts that set-up trained. The loop is closed: one
// reader connection sends 95 % POST /v1/predict (a batch of Latin-hypercube
// points, default model kind) and 5 % GET /v1/rank?n=10 back to back, and one
// writer connection sends POST /v1/measure with one fresh point per request.
// A pass lasts for a fixed number of writer requests; the reader never stops
// between passes. With two cores this is one connection of each kind, which
// with the single farm worker uses no more threads than the box has.
type serveMix struct {
	e         *env
	programs  []workloads.Workload
	artifacts string
	srv       *serve.Server
	http      *httptest.Server
	client    *http.Client
	traced    *tracedBatch

	stopReader chan struct{}
	readerDone chan struct{}
	reader     readerLog

	lastMeasured []measured
}

// serveScale is the harness scale whose name the artifacts carry; the server
// resolves it by name, so it must be one of the harness's own.
const serveScale = "quick"

func newServeMix(e *env) (*serveMix, error) {
	s := &serveMix{e: e}
	for _, name := range e.size.servePrograms {
		w, err := workloads.Get(name, workloads.Train)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, w)
	}
	return s, nil
}

func (s *serveMix) options() serve.Options {
	return serve.Options{
		Scale: serveScale, TrainPoints: s.e.size.serveTrain, ArtifactDir: s.artifacts,
		// The rate limits are opened: a closed loop on one connection is
		// paced by the server, not by a token bucket.
		RatePerSec: 1e9, RateBurst: 1e9,
	}
}

// setUp trains the artifacts on a writer instance (one predict per program
// fits and persists its models), closes it, and boots the instance the passes
// use from the artifact directory alone.
func (s *serveMix) setUp() error {
	dir, err := os.MkdirTemp(s.e.scratch, "artifacts-")
	if err != nil {
		return err
	}
	s.artifacts = dir
	trainOpts := s.options()
	trainOpts.Workers = s.e.workers
	trainer := serve.New(trainOpts)
	ts := httptest.NewServer(trainer.Handler())
	rng := s.e.rng("serve-train", 0)
	for _, w := range s.programs {
		body := predictBody(w, doe.JointSpace().LatinHypercube(1, rng))
		if _, code, err := post(ts.Client(), ts.URL+"/v1/predict", body); err != nil || code != http.StatusOK {
			ts.Close()
			trainer.Close()
			return fmt.Errorf("training %s: status %d, %v", w.Key(), code, err)
		}
	}
	ts.Close()
	if err := trainer.Close(); err != nil {
		return err
	}
	s.boot(nil)
	return nil
}

// boot starts the serving instance. With a tracer the coalescer dispatches
// through serve.Options.Batch to a farm the benchmark owns, built as the
// server's own harness would build it, so that the dispatch can carry a span.
func (s *serveMix) boot(tr *tracer) {
	opts := s.options()
	opts.Workers = 1
	if tr != nil {
		s.traced = &tracedBatch{tr: tr, farm: farm.New(farm.Options{Workers: 1, Store: farm.MemStore()})}
		opts.Batch = s.traced.batch
	}
	s.srv = serve.New(opts)
	s.http = httptest.NewServer(s.srv.Handler())
	s.client = s.http.Client()
}

func (s *serveMix) shutdown() {
	if s.stopReader != nil {
		close(s.stopReader)
		<-s.readerDone
		s.stopReader = nil
	}
	if s.http != nil {
		s.http.Close()
		s.srv.Close()
		s.http, s.srv = nil, nil
	}
	if s.traced != nil {
		s.traced.farm.Close()
		s.traced = nil
	}
}

func (s *serveMix) tearDown() { s.shutdown() }

// tracedBatch is the Batch seam of a traced instance.
type tracedBatch struct {
	tr      *tracer
	farm    *farm.Farm
	request atomic.Int64 // the writer's open request span
}

func (b *tracedBatch) batch(ctx context.Context, w workloads.Workload, pts []doe.Point, resp farm.Response) ([]float64, error) {
	sp := b.tr.start(b.request.Load(), "", "serve", "batch")
	vals, err := b.farm.MeasureBatch(ctx, w, pts, resp)
	sp.end("points", int64(len(pts)))
	return vals, err
}

// readerLog is what the reader goroutine records; the writer's pass reads
// the counters at its boundaries.
type readerLog struct {
	mu               sync.Mutex
	done, failed     int64
	predictS, rankS  []float64
	sampledReq       []sampledPredict
	tr               *tracer
	predicts, ranked int64
}

// sampledPredict is one predict exchange kept for checking.
type sampledPredict struct {
	workload workloads.Workload
	points   []doe.Point
	preds    []float64
}

func predictBody(w workloads.Workload, pts []doe.Point) []byte {
	raw := make([][]int64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	body, _ := json.Marshal(serve.PredictRequest{Workload: w.Name, Points: raw})
	return body
}

func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// startReader runs the reader connection until stopReader closes. Its
// request stream is drawn from the seed.
func (s *serveMix) startReader(tr *tracer) {
	s.stopReader = make(chan struct{})
	s.readerDone = make(chan struct{})
	s.reader = readerLog{tr: tr}
	stop := s.stopReader
	rng := s.e.rng("serve-reader", 0)
	// The predict requests are built before the loop starts, so the reader
	// spends its time waiting for the server, not drawing points.
	space := doe.JointSpace()
	type prepared struct {
		sampledPredict
		body []byte
	}
	pool := make([]prepared, s.e.size.predictBodies)
	for i := range pool {
		w := s.programs[rng.Intn(len(s.programs))]
		pts := space.LatinHypercube(s.e.size.predictPoints, rng)
		pool[i] = prepared{sampledPredict{workload: w, points: pts}, predictBody(w, pts)}
	}
	go func() {
		defer close(s.readerDone)
		lg := &s.reader
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Float64() < 0.05 {
				w := s.programs[rng.Intn(len(s.programs))]
				sp := lg.tr.start(0, "", "serve", "rank")
				t0 := time.Now()
				resp, err := s.client.Get(s.http.URL + "/v1/rank?n=10&workload=" + w.Name)
				ok := err == nil && resp.StatusCode == http.StatusOK
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				d := time.Since(t0).Seconds()
				sp.end()
				lg.mu.Lock()
				lg.done++
				lg.ranked++
				if !ok {
					lg.failed++
				}
				lg.rankS = append(lg.rankS, d)
				lg.mu.Unlock()
				continue
			}
			req := pool[rng.Intn(len(pool))]
			sp := lg.tr.start(0, "", "serve", "predict")
			t0 := time.Now()
			data, code, err := post(s.client, s.http.URL+"/v1/predict", req.body)
			d := time.Since(t0).Seconds()
			sp.end()
			var pr serve.PredictResponse
			ok := err == nil && code == http.StatusOK && json.Unmarshal(data, &pr) == nil &&
				len(pr.Predictions) == len(req.points)
			lg.mu.Lock()
			lg.done++
			lg.predicts++
			if !ok {
				lg.failed++
			} else if lg.predicts%100 == 1 {
				req.preds = pr.Predictions
				lg.sampledReq = append(lg.sampledReq, req.sampledPredict)
			}
			lg.predictS = append(lg.predictS, d)
			lg.mu.Unlock()
		}
	}()
}

func (s *serveMix) readerCounts() (done, failed int64) {
	s.reader.mu.Lock()
	defer s.reader.mu.Unlock()
	return s.reader.done, s.reader.failed
}

// pass restarts the instance when the tracing mode changes, warms it up, and
// then times serveMeasures writer requests with the reader running beside.
func (s *serveMix) pass(i int, tr *tracer) (*passOut, error) {
	if (tr != nil) != (s.traced != nil) {
		s.shutdown()
		s.boot(tr)
	}
	if s.stopReader == nil {
		s.startReader(tr)
		// Warm-up: connections, buffers and the first artifact reads.
		if _, err := s.write(s.e.rng("serve-warmup", i), time.Duration(s.e.size.serveWarmup*float64(time.Second)), 0, nil); err != nil {
			return nil, err
		}
	}
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	done0, failed0 := s.readerCounts()
	start := time.Now()
	ws, err := s.write(s.e.rng("serve-writer", i), 0, s.e.size.serveMeasures, tr)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	done1, failed1 := s.readerCounts()
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	s.lastMeasured = ws.measured

	reads := done1 - done0
	n := float64(len(ws.latS))
	po := &passOut{
		e2e: map[string]float64{
			"wall_s":            wall,
			"time_to_model_s":   wall,
			"time_to_setting_s": wall,
			"points_per_s":      n / wall,
			"req_per_s":         float64(reads) / wall,
		},
		layer:     map[string]float64{},
		samples:   map[string][]float64{"measure": ws.latS},
		attempted: reads + int64(len(ws.latS)),
		failed:    failed1 - failed0 + ws.failed,
		digest:    digestOf(ws.measured),
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	batches := delta("empiricod_measure_batches_total")
	po.layer["serve.coalesced_batches"] = batches
	if batches > 0 {
		po.layer["serve.points_per_batch"] = n / batches
	}
	po.layer["serve.registry_fits"] = after["empiricod_model_fits_total"]
	po.layer["serve.shed_429"] = delta("empiricod_shed_total") + delta("empiricod_rate_limited_total")
	po.layer["exp.stage_measure_s"] = wall
	po.layer["exp.sim_instrs"] = delta("empiricod_farm_instrs_total")
	return po, nil
}

// writes is what one stretch of writer requests produced.
type writes struct {
	latS     []float64
	measured []measured
	failed   int64
}

// write sends measure requests one after another: count of them, or for the
// given duration when count is 0.
func (s *serveMix) write(rng *rand.Rand, dur time.Duration, count int, tr *tracer) (*writes, error) {
	ws := &writes{}
	space := doe.JointSpace()
	deadline := time.Now().Add(dur)
	fresh := make([]doe.Point, s.e.size.serveMeasures)
	for n := 0; (count > 0 && n < count) || (count == 0 && time.Now().Before(deadline)); n++ {
		w := s.programs[n%len(s.programs)]
		if n%len(fresh) == 0 {
			// A Latin hypercube per stretch keeps the writer's points, and so
			// the simulation work of a pass, balanced over the space.
			fresh = space.LatinHypercube(len(fresh), rng)
		}
		p := fresh[n%len(fresh)]
		body, _ := json.Marshal(serve.MeasureRequest{Workload: w.Name, Points: [][]int64{p}})
		sp := tr.start(0, "", "serve", "measure")
		if s.traced != nil {
			s.traced.request.Store(sp.id())
		}
		t0 := time.Now()
		data, code, err := post(s.client, s.http.URL+"/v1/measure", body)
		ws.latS = append(ws.latS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
		var mr serve.MeasureResponse
		if code != http.StatusOK || json.Unmarshal(data, &mr) != nil || len(mr.Values) != 1 {
			ws.failed++
			continue
		}
		// The endpoint returns the one response asked for, cycles; NaN marks
		// the energy as not observed, and the reference replay skips it.
		ws.measured = append(ws.measured, measured{job: farm.Job{Workload: w, Point: p}, cycles: mr.Values[0], energy: math.NaN()})
	}
	return ws, nil
}

var promLine = regexp.MustCompile(`(?m)^(empiricod_[a-z_]+)(?:\{scale="[a-z]+"\})? ([0-9.e+-]+)$`)

// scrape reads the unlabelled and per-scale counters of /metrics.
func (s *serveMix) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.http.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range promLine.FindAllStringSubmatch(string(data), -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = v
		}
	}
	return out, nil
}

func (s *serveMix) verify(rs *runState) []string {
	var fails []string
	// Stop the reader first so its log is complete and the box is quiet.
	if s.stopReader != nil {
		close(s.stopReader)
		<-s.readerDone
		s.stopReader = nil
	}
	lg := &s.reader
	if lg.predicts == 0 || lg.ranked == 0 {
		fails = append(fails, fmt.Sprintf("the reader completed %d predict and %d rank requests", lg.predicts, lg.ranked))
	}
	if m, err := s.scrape(); err != nil {
		fails = append(fails, "scraping /metrics: "+err.Error())
	} else if fits := m["empiricod_model_fits_total"]; fits != 0 {
		fails = append(fails, fmt.Sprintf("the warm-booted instance fitted %v models", fits))
	}

	// A sample of one predict response in a hundred must equal PredictAll on
	// the artifact as decoded from disk.
	store, err := serve.OpenArtifacts(s.artifacts, nil)
	if err != nil {
		return append(fails, "opening the artifacts: "+err.Error())
	}
	models := map[string]model.Model{}
	space := doe.JointSpace()
	for _, sp := range lg.sampledReq {
		m, ok := models[sp.workload.Key()]
		if !ok {
			art, err := store.Load(sp.workload, serveScale)
			if err != nil {
				return append(fails, err.Error())
			}
			if m, err = art.Model(""); err != nil {
				return append(fails, err.Error())
			}
			models[sp.workload.Key()] = m
		}
		coded := make([][]float64, len(sp.points))
		for i, p := range sp.points {
			coded[i] = space.Code(p)
		}
		for i, v := range model.PredictAll(m, coded) {
			if math.Float64bits(v) != math.Float64bits(sp.preds[i]) {
				fails = append(fails, fmt.Sprintf("%s: served prediction %v, the artifact predicts %v", sp.workload.Key(), sp.preds[i], v))
				break
			}
		}
	}
	if len(lg.sampledReq) == 0 {
		fails = append(fails, "no predict response was sampled")
	}

	sl, f := replayReference(pick(s.lastMeasured, s.e.size.referencePoints, s.e.rng("reference", 0)), s.e.expected, rs.tr)
	fails = append(fails, f...)
	if rs.tr != nil {
		sl.report(rs.layer)
		s.layers(rs)
	}
	return fails
}

// layers reduces the client timings and the Batch seam's spans.
func (s *serveMix) layers(rs *runState) {
	lg := &s.reader
	rs.layer["serve.predict_p50_ms"] = 1000 * median(lg.predictS)
	rs.layer["serve.predict_p99_ms"] = 1000 * percentile(lg.predictS, 99)
	rs.layer["serve.rank_p50_ms"] = 1000 * median(lg.rankS)
	lat := rs.samples["measure"]
	rs.layer["serve.measure_p50_ms"] = 1000 * median(lat)
	rs.layer["serve.measure_p99_ms"] = 1000 * percentile(lat, 99)

	// Handler self time: a measure request's span minus the Batch span it
	// caused.
	spans := rs.tr.snapshot()
	self := selfTimes(spans)
	var handler []float64
	for _, sp := range spans {
		if sp.Layer == "serve" && sp.Name == "measure" {
			handler = append(handler, self[sp.ID].Seconds())
		}
	}
	if len(handler) > 0 {
		rs.layer["serve.handler_self_ms_p50"] = 1000 * median(handler)
	}
}
