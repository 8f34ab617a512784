// loadgen drives an empiricod instance with a mixed prediction workload,
// reports serving latency percentiles, throughput and error rate, and is the
// serve SLO gate: it exits 1 when the run's p99 latency or error rate breaks
// the SLO (sloP99Ms, sloErrRate).
//
// Two loop modes:
//
//   - closed loop (default): -conns workers issue requests back to back, so
//     the offered load adapts to the server — the classic saturation probe;
//   - open loop (-rps N): arrivals fire on a fixed schedule regardless of
//     completions, so queueing delay shows up in the tail instead of
//     throttling the arrival rate (the coordinated-omission-free mode).
//
// The endpoint mix defaults to prediction traffic (predict + rank) because
// that is the replica-servable surface; measure traffic is opt-in via -mix,
// since a replica answers it 503 by design and a writer answers it at
// simulation speed, not serving speed.
//
// Output: a human line on stderr and optionally the full JSON report via
// -out (written before the SLO verdict, so a failing run leaves its numbers):
//
//	loadgen -addr http://127.0.0.1:8081 -duration 10s -conns 8 -out serve_report.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/doe"
)

type config struct {
	addr      string
	workloads []string
	scale     string
	modelKind string
	mix       map[string]float64
	duration  time.Duration
	warmup    time.Duration
	conns     int
	rps       float64
	points    int
	seed      int64
	out       string
	quiet     bool
}

// The serving SLO. Hard caps rather than comparisons against a recorded run:
// a warm replica answers predict and rank from memory in single-digit
// milliseconds on any host, so a p99 past a quarter second or more than one
// request in a hundred failing is a defect, not noise.
const (
	sloP99Ms   = 250.0
	sloErrRate = 0.01
)

// Report is the JSON document -out writes.
type Report struct {
	Mode        string           `json:"mode"` // "closed" or "open"
	DurationSec float64          `json:"duration_sec"`
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	ErrRate     float64          `json:"err_rate"`
	RPS         float64          `json:"rps"`
	P50Ms       float64          `json:"p50_ms"`
	P95Ms       float64          `json:"p95_ms"`
	P99Ms       float64          `json:"p99_ms"`
	MaxMs       float64          `json:"max_ms"`
	ByEndpoint  map[string]int64 `json:"by_endpoint"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "empiricod base URL")
		wls      = flag.String("workloads", "179.art", "comma-separated workload names to spread requests over")
		scale    = flag.String("scale", "", "request scale (empty = server default)")
		kind     = flag.String("model", "", "model kind for predict requests (empty = server default)")
		mix      = flag.String("mix", "predict=0.9,rank=0.1", "endpoint mix as name=weight pairs (predict|rank|measure)")
		duration = flag.Duration("duration", 10*time.Second, "measured run length (after warmup)")
		warmup   = flag.Duration("warmup", 1*time.Second, "warmup period excluded from the report")
		conns    = flag.Int("conns", 8, "closed-loop concurrent connections (also the open-loop worker pool)")
		rps      = flag.Float64("rps", 0, "open-loop arrival rate; 0 = closed loop")
		points   = flag.Int("points", 1, "design points per predict request")
		seed     = flag.Int64("seed", 1, "deterministic point-generation seed")
		out      = flag.String("out", "", "write the full JSON report here")
		quiet    = flag.Bool("q", false, "suppress the human-readable summary")
	)
	flag.Parse()

	mixW, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	cfg := config{
		addr: strings.TrimRight(*addr, "/"), workloads: strings.Split(*wls, ","),
		scale: *scale, modelKind: *kind, mix: mixW,
		duration: *duration, warmup: *warmup, conns: *conns, rps: *rps,
		points: *points, seed: *seed, out: *out, quiet: *quiet,
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !cfg.quiet {
		fmt.Fprintf(os.Stderr,
			"loadgen: %s loop, %d requests in %.1fs: %.0f req/s, p50 %.2fms p95 %.2fms p99 %.2fms, %.2f%% errors\n",
			rep.Mode, rep.Requests, rep.DurationSec, rep.RPS, rep.P50Ms, rep.P95Ms, rep.P99Ms, 100*rep.ErrRate)
	}
	if err := checkSLO(rep); err != nil {
		fatal(err)
	}
}

// checkSLO holds a report against the serving SLO. A run that completed no
// request measured nothing and fails too.
func checkSLO(rep *Report) error {
	switch {
	case rep.Requests == 0:
		return fmt.Errorf("loadgen: no request completed in the measured window")
	case rep.P99Ms > sloP99Ms:
		return fmt.Errorf("loadgen: p99 %.2fms above SLO cap %gms", rep.P99Ms, sloP99Ms)
	case rep.ErrRate > sloErrRate:
		return fmt.Errorf("loadgen: error rate %.4f above SLO cap %g", rep.ErrRate, sloErrRate)
	}
	return nil
}

// parseMix turns "predict=0.9,rank=0.1" into normalized endpoint weights.
func parseMix(s string) (map[string]float64, error) {
	out := map[string]float64{}
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want name=weight)", part)
		}
		switch name {
		case "predict", "rank", "measure":
		default:
			return nil, fmt.Errorf("loadgen: unknown endpoint %q in mix (predict|rank|measure)", name)
		}
		var w float64
		if _, err := fmt.Sscanf(val, "%g", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: bad mix weight %q", val)
		}
		out[name] += w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// pickEndpoint samples the mix. Weights are normalized, so the running-sum
// walk always terminates inside the loop.
func pickEndpoint(mix map[string]float64, u float64) string {
	// Iterate in fixed order for determinism given u.
	last := ""
	for _, name := range []string{"predict", "rank", "measure"} {
		w, ok := mix[name]
		if !ok {
			continue
		}
		last = name
		if u < w {
			return name
		}
		u -= w
	}
	return last
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	err     bool
	name    string
}

func run(cfg config) (*Report, error) {
	if len(cfg.workloads) == 0 || cfg.conns <= 0 {
		return nil, fmt.Errorf("loadgen: need at least one workload and one connection")
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.conns * 2,
			MaxIdleConnsPerHost: cfg.conns * 2,
		},
	}
	// Pre-build request bodies: point generation must not sit on the
	// measured path. A small rotating pool is enough variety to dodge any
	// request-identical caching without per-request allocation.
	bodies := prebuildBodies(cfg, 64)

	measureStart := time.Now().Add(cfg.warmup)
	deadline := measureStart.Add(cfg.duration)

	var (
		mu      sync.Mutex
		samples []sample
	)
	record := func(s sample, at time.Time) {
		if at.Before(measureStart) {
			return
		}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	mode := "closed"
	if cfg.rps > 0 {
		mode = "open"
		// Open loop: a ticker fires arrivals; a worker pool absorbs them so a
		// slow response delays later requests' completion, never their start.
		arrivals := make(chan int, cfg.conns*4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(arrivals)
			interval := time.Duration(float64(time.Second) / cfg.rps)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for i := 0; ; i++ {
				if time.Now().After(deadline) {
					return
				}
				select {
				case arrivals <- i:
				default:
					// The pool is saturated: the arrival is dropped and counted
					// as an error, which is what an overloaded open-loop target
					// should report, not silently absorb.
					record(sample{err: true, name: "dropped"}, time.Now())
				}
				<-tick.C
			}
		}()
		for c := 0; c < cfg.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
				for i := range arrivals {
					record(issue(client, cfg, bodies, rng, i))
				}
			}(c)
		}
	} else {
		for c := 0; c < cfg.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
				for i := 0; time.Now().Before(deadline); i++ {
					record(issue(client, cfg, bodies, rng, i))
				}
			}(c)
		}
	}
	wg.Wait()
	return summarize(mode, cfg.duration, samples), nil
}

// prebuildBodies renders n predict/measure request payloads over random
// joint-space points, plus the rank URLs, round-robined over the workloads.
type bodySet struct {
	predict [][]byte
	measure [][]byte
	rank    []string
}

func prebuildBodies(cfg config, n int) *bodySet {
	rng := rand.New(rand.NewSource(cfg.seed))
	space := doe.JointSpace()
	bs := &bodySet{}
	for i := 0; i < n; i++ {
		wl := cfg.workloads[i%len(cfg.workloads)]
		pts := make([][]int64, cfg.points)
		for j := range pts {
			pts[j] = space.RandomPoint(rng)
		}
		pb, _ := json.Marshal(map[string]any{
			"workload": wl, "scale": cfg.scale, "model": cfg.modelKind, "points": pts,
		})
		bs.predict = append(bs.predict, pb)
		mb, _ := json.Marshal(map[string]any{"workload": wl, "points": pts})
		bs.measure = append(bs.measure, mb)
		bs.rank = append(bs.rank,
			fmt.Sprintf("%s/v1/rank?workload=%s&n=5&scale=%s", cfg.addr, url.QueryEscape(wl), url.QueryEscape(cfg.scale)))
	}
	return bs
}

// issue sends one request picked from the mix and returns its sample.
func issue(client *http.Client, cfg config, bodies *bodySet, rng *rand.Rand, i int) (sample, time.Time) {
	name := pickEndpoint(cfg.mix, rng.Float64())
	var (
		resp *http.Response
		err  error
	)
	start := time.Now()
	switch name {
	case "predict":
		resp, err = client.Post(cfg.addr+"/v1/predict", "application/json",
			bytes.NewReader(bodies.predict[i%len(bodies.predict)]))
	case "measure":
		resp, err = client.Post(cfg.addr+"/v1/measure", "application/json",
			bytes.NewReader(bodies.measure[i%len(bodies.measure)]))
	default:
		resp, err = client.Get(bodies.rank[i%len(bodies.rank)])
	}
	s := sample{name: name}
	if err != nil {
		s.err = true
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.err = resp.StatusCode != http.StatusOK
	}
	done := time.Now()
	s.latency = done.Sub(start)
	return s, done
}

// summarize reduces the samples to the report. Percentiles use the
// nearest-rank method over successful-and-failed requests alike: an error
// that took 30s to surface is tail latency the client felt.
func summarize(mode string, duration time.Duration, samples []sample) *Report {
	rep := &Report{
		Mode:        mode,
		DurationSec: duration.Seconds(),
		ByEndpoint:  map[string]int64{},
	}
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		rep.Requests++
		rep.ByEndpoint[s.name]++
		if s.err {
			rep.Errors++
		}
		lats = append(lats, float64(s.latency)/float64(time.Millisecond))
	}
	if rep.Requests > 0 {
		rep.ErrRate = float64(rep.Errors) / float64(rep.Requests)
		rep.RPS = float64(rep.Requests) / duration.Seconds()
	}
	sort.Float64s(lats)
	rep.P50Ms = percentile(lats, 50)
	rep.P95Ms = percentile(lats, 95)
	rep.P99Ms = percentile(lats, 99)
	if n := len(lats); n > 0 {
		rep.MaxMs = lats[n-1]
	}
	return rep
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
