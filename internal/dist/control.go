package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/farm"
)

// Handler returns the coordinator's control API, served on whatever
// listener the embedding process chooses (empirico's -control-addr,
// empiricod's API port):
//
//	POST   /v1/register  {"addr","slots"} — join the fleet (or rejoin/resize)
//	DELETE /v1/register  {"addr"}         — leave gracefully
//	GET    /v1/workers                    — the coordinator's fleet view
//
// Keeping it a plain http.Handler (like Worker.Handler) leaves listener
// lifecycle, TLS and auth to the caller.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("DELETE /v1/register", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	return mux
}

// BackendFactory turns a command's -workers-addrs and -control-addr values
// into its harness's MakeBackend hook: a coordinator over the comma-separated
// static addresses, elastic when a control address is given, whose control
// API is served there for the life of the process. It returns nil when
// neither is set, which leaves the in-process farm in place. A coordinator
// that cannot be built goes to fatal; prog prefixes the listener's error line.
func BackendFactory(prog, workersAddrs, controlAddr string, fatal func(error)) func(farm.Options) farm.Backend {
	if workersAddrs == "" && controlAddr == "" {
		return nil
	}
	addrs := strings.FieldsFunc(workersAddrs, func(r rune) bool { return r == ',' })
	return func(fo farm.Options) farm.Backend {
		c, err := New(Options{Addrs: addrs, Dynamic: controlAddr != "", Store: fo.Store, Log: fo.Log})
		if err != nil {
			fatal(err)
		}
		if controlAddr != "" {
			go func() {
				if err := http.ListenAndServe(controlAddr, c.Handler()); err != nil {
					fmt.Fprintln(os.Stderr, prog+": control listener:", err)
				}
			}()
		}
		return c
	}
}

func (c *Coordinator) handleRegister(rw http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Addr == "" {
		http.Error(rw, "bad register body", http.StatusBadRequest)
		return
	}
	n, err := c.Register(req.Addr, req.Slots)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusServiceUnavailable)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(RegisterResponse{OK: true, Workers: n})
}

func (c *Coordinator) handleDeregister(rw http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Addr == "" {
		http.Error(rw, "bad deregister body", http.StatusBadRequest)
		return
	}
	n, err := c.Deregister(req.Addr)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusServiceUnavailable)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(RegisterResponse{OK: true, Workers: n})
}

func (c *Coordinator) handleWorkers(rw http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	infos := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		infos = append(infos, WorkerInfo{
			Addr:     w.addr,
			Slots:    w.slots,
			InFlight: w.inflight,
			Live:     w.live,
			Removed:  w.removed,
		})
	}
	c.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(infos)
}

// RegisterWorker announces a worker to a coordinator's control endpoint,
// retrying until ctx expires — at boot the worker usually comes up before
// (or racing) the coordinator, so transient refusals are expected.
func RegisterWorker(ctx context.Context, coordinator, addr string, slots int) error {
	return controlCall(ctx, http.MethodPost, coordinator, RegisterRequest{Addr: addr, Slots: slots})
}

// DeregisterWorker withdraws a worker from a coordinator; used on graceful
// worker shutdown so the coordinator stops leasing to it and pulls its
// final store delta while the process is still up.
func DeregisterWorker(ctx context.Context, coordinator, addr string) error {
	return controlCall(ctx, http.MethodDelete, coordinator, RegisterRequest{Addr: addr})
}

func controlCall(ctx context.Context, method, coordinator string, body RegisterRequest) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	u := baseURL(coordinator) + "/v1/register"
	var lastErr error
	for {
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("dist: control %s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(msg))
		} else {
			lastErr = err
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return lastErr
			}
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
