// empirico-worker is one shard of the distributed measurement plane: a
// daemon that wraps a local measurement farm behind the group-lease API,
// measuring whatever shared-binary groups a coordinator (empiricod or
// empirico with -workers-addrs) leases to it.
//
// Usage:
//
//	empirico-worker -addr 127.0.0.1:9101 -workers 4 \
//	    -store .empirico-cache/worker-9101.json \
//	    -coordinator http://127.0.0.1:9100 -advertise 127.0.0.1:9101
//
// Endpoints:
//
//	POST /v1/group   measure one shared-binary group, results streamed as
//	                 ndjson (heartbeats while measuring, then one result
//	                 line per point and a done line)
//	GET  /v1/store   the worker's whole journaled store
//	GET  /healthz    liveness + local farm counters
//
// With -store the worker keeps its own journaled partition of the
// measurement store: repeat leases are answered from local cache with zero
// simulations, and the coordinator pulls the store on its checkpoints.
// Without it the worker is stateless and killing it at any moment loses
// nothing: in-flight leases expire on the coordinator and requeue elsewhere.
//
// With -coordinator the worker registers itself on boot and deregisters on
// SIGTERM, so fleets grow and shrink without restarting the coordinator.
// Registered or named in -workers-addrs, the worker states its -workers
// slot count on every lease it answers, and the coordinator leases it that
// many groups at once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/farm"
)

func main() {
	var (
		addr        = flag.String("addr", ":9101", "listen address")
		workers     = flag.Int("workers", 0, "simulations run at once, stated to the coordinator as this worker's lease budget (0 = GOMAXPROCS)")
		storePath   = flag.String("store", "", "journaled worker-local store path (empty = in-memory only)")
		coordinator = flag.String("coordinator", "", "coordinator control URL to register with (empty = static fleet membership)")
		advertise   = flag.String("advertise", "", "address the coordinator should lease to (default: -addr)")
		quiet       = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	opts := dist.WorkerOptions{Workers: *workers}
	say := func(format string, args ...any) {}
	if !*quiet {
		opts.Log = os.Stderr
		say = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "empirico-worker: "+format+"\n", args...) }
	}
	if *storePath != "" {
		st, err := farm.Open(*storePath, opts.Log)
		if err != nil {
			fatal(fmt.Errorf("open store: %w", err))
		}
		opts.Store = st
	}
	w := dist.NewWorker(opts)
	hs := &http.Server{Addr: *addr, Handler: w.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		say("listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	leaseAddr := *advertise
	if leaseAddr == "" {
		leaseAddr = *addr
	}
	if *coordinator != "" {
		regCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := dist.RegisterWorker(regCtx, *coordinator, leaseAddr)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("register with %s: %w", *coordinator, err))
		}
		say("registered %s with %s", leaseAddr, *coordinator)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	say("shutting down")
	if *coordinator != "" {
		// Deregister first so the coordinator stops leasing here and pulls
		// the store one last time while this process can still answer.
		deregCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := dist.DeregisterWorker(deregCtx, *coordinator, leaseAddr); err != nil {
			fmt.Fprintln(os.Stderr, "empirico-worker: deregister:", err)
		}
		cancel()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "empirico-worker: drain:", err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "empirico-worker:", err)
	os.Exit(1)
}
