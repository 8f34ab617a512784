// empiricod serves the measurement and modeling pipeline over HTTP: model
// predictions, ground-truth simulation, model-based flag search and
// significant-term ranking, with Prometheus-style metrics.
//
// Usage:
//
//	empiricod -addr :8080 -scale quick -cache .empirico-cache
//
// Endpoints:
//
//	POST /v1/predict   batch model predictions at raw design points
//	POST /v1/predict-program  cross-model predictions for raw MiniC source
//	POST /v1/measure   ground truth (compile + simulate), shared in the planner
//	POST /v1/search    GA flag search, streamed generation-by-generation
//	GET  /v1/rank      significant-term ranking of the fitted model
//	POST /v1/reload    rescan the artifact directory (also on SIGHUP)
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text exposition
//
// With -artifacts DIR every fitted model set is persisted and the daemon
// warm-boots from the directory; with -replica it serves predictions from
// those artifacts only (no farm, no training) — run one writer and any
// number of replicas over a shared directory. SIGHUP (or POST /v1/reload)
// swaps freshly persisted artifacts in without a restart.
//
// The daemon drains in-flight requests on SIGINT/SIGTERM, then checkpoints
// the measurement store before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, mounted only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		scale    = flag.String("scale", "default", "default harness scale: quick|default|paper")
		cacheDir = flag.String("cache", "", "directory for the durable measurement cache")
		workers  = flag.Int("workers", 0, "farm + analytics workers (0 = GOMAXPROCS)")
		models   = flag.Int("max-models", 0, "resident (workload, scale) model sets (0 = 8)")
		rate     = flag.Float64("rate", 0, "per-endpoint requests/second (0 = 50)")
		burst    = flag.Float64("burst", 0, "per-endpoint burst (0 = 100)")
		inflight = flag.Int("max-inflight", 0, "concurrent requests before shedding (0 = 256)")
		train    = flag.Int("train", 0, "override training-design size (0 = scale default; smoke tests)")
		artDir   = flag.String("artifacts", "", "directory for persisted model artifacts (warm boot + reload)")
		replica  = flag.Bool("replica", false, "serve predictions from persisted artifacts only (requires -artifacts; no farm, no training)")
		pprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for HTTP handlers")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain timeout for in-flight measurement leases")
		waddrs   = flag.String("workers-addrs", "", "comma-separated empirico-worker addresses; measurements shard across them instead of running in-process")
		ctrlAddr = flag.String("control-addr", "", "serve the coordinator control API (worker register/deregister) on this address; implies an elastic fleet, usable with an empty -workers-addrs")
		quiet    = flag.Bool("q", false, "suppress progress output")

		crossSeed = flag.Int64("cross-seed", 0, "predict-program: wlgen corpus seed (0 = default)")
		crossN    = flag.Int("cross-corpus", 0, "predict-program: wlgen programs added to the seed suite (0 = default)")
		crossPts  = flag.Int("cross-points", 0, "predict-program: measured joint points per corpus program (0 = default)")
	)
	flag.Parse()

	if *replica && *artDir == "" {
		fatal(fmt.Errorf("-replica requires -artifacts"))
	}
	opts := serve.Options{
		Scale:           *scale,
		CacheDir:        *cacheDir,
		Workers:         *workers,
		TrainPoints:     *train,
		MaxModels:       *models,
		ArtifactDir:     *artDir,
		Replica:         *replica,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		MaxInFlight:     *inflight,
		CrossCorpusSeed: *crossSeed,
		CrossCorpusSize: *crossN,
		CrossPointsPer:  *crossPts,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	opts.MakeBackend = dist.BackendFactory("empiricod", *waddrs, *ctrlAddr, fatal)
	if opts.MakeBackend != nil && !*quiet {
		static := 0
		if *waddrs != "" {
			static = strings.Count(*waddrs, ",") + 1
		}
		fmt.Fprintf(os.Stderr, "empiricod: sharding measurements across workers (%d static, control %s)\n", static, *ctrlAddr)
	}
	srv := serve.New(opts)
	handler := srv.Handler()
	if *pprof {
		// net/http/pprof registers on DefaultServeMux; expose it only when
		// asked — profiling endpoints are an operator tool, not part of the
		// public API surface.
		root := http.NewServeMux()
		root.Handle("/debug/pprof/", http.DefaultServeMux)
		root.Handle("/", handler)
		handler = root
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *artDir != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				loaded, skipped, err := srv.ReloadArtifacts()
				if err != nil {
					fmt.Fprintln(os.Stderr, "empiricod: reload:", err)
					continue
				}
				if !*quiet {
					fmt.Fprintf(os.Stderr, "empiricod: reload: %d artifacts loaded, %d skipped\n", loaded, skipped)
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "empiricod: listening on %s (scale %s)\n", *addr, *scale)
		}
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Stop accepting, drain handlers, let in-flight measurement leases
	// finish (bounded; stragglers are cancelled and requeued so nothing is
	// silently lost), then checkpoint the farm stores.
	if !*quiet {
		fmt.Fprintln(os.Stderr, "empiricod: shutting down")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "empiricod: drain:", err)
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	defer dcancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "empiricod: lease drain:", err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "empiricod:", err)
	os.Exit(1)
}
