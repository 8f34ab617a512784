package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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
//	POST   /v1/register  {"addr"} — join the fleet (or rejoin)
//	DELETE /v1/register  {"addr"} — leave gracefully
//	GET    /v1/workers            — the coordinator's fleet view
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

// maxControlBody bounds a register or deregister body. A request is
// {"addr"}; an unbounded decode would let one POST register a worker
// with an address of any length.
const maxControlBody = 64 << 10

func (c *Coordinator) handleRegister(rw http.ResponseWriter, r *http.Request) {
	c.handleControl(rw, r, func(req RegisterRequest) (int, error) { return c.Register(req.Addr) })
}

func (c *Coordinator) handleDeregister(rw http.ResponseWriter, r *http.Request) {
	c.handleControl(rw, r, func(req RegisterRequest) (int, error) { return c.Deregister(req.Addr) })
}

// handleControl decodes a bounded RegisterRequest, applies it to the fleet
// and answers with the fleet size. A body without an address is a 400.
func (c *Coordinator) handleControl(rw http.ResponseWriter, r *http.Request, apply func(RegisterRequest) (int, error)) {
	var req RegisterRequest
	body := http.MaxBytesReader(rw, r.Body, maxControlBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil || req.Addr == "" {
		http.Error(rw, "bad control body", http.StatusBadRequest)
		return
	}
	n, err := apply(req)
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
// (or racing) the coordinator, so transient refusals are expected. The
// worker states its slots on each lease it answers, not here.
func RegisterWorker(ctx context.Context, coordinator, addr string) error {
	return controlCall(ctx, http.MethodPost, coordinator, RegisterRequest{Addr: addr}, true)
}

// DeregisterWorker withdraws a worker from a coordinator; used on graceful
// worker shutdown so the coordinator stops leasing to it and pulls its
// final store delta while the process is still up. A refused dial returns
// at once: a coordinator that is gone has nothing to withdraw.
func DeregisterWorker(ctx context.Context, coordinator, addr string) error {
	return controlCall(ctx, http.MethodDelete, coordinator, RegisterRequest{Addr: addr}, false)
}

// controlCall sends one control request, retrying 5xx answers, and dial
// errors if retryDial, until ctx expires. A 4xx (a wrong coordinator URL, a
// bad body) will not change on retry, so it returns at once.
func controlCall(ctx context.Context, method, coordinator string, body RegisterRequest, retryDial bool) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	u := baseURL(coordinator) + "/v1/register"
	for {
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if op := (*net.OpError)(nil); !retryDial && errors.As(err, &op) && op.Op == "dial" {
			return err
		}
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("dist: control %s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(msg))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(200 * time.Millisecond):
		}
	}
}
