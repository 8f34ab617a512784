package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/farm"
)

// WorkerOptions configures a measurement worker.
type WorkerOptions struct {
	// Workers bounds the local farm's pool (0 = GOMAXPROCS). The count is
	// also the slot budget a worker advertises when it registers with a
	// coordinator.
	Workers int
	// Heartbeat is the interval between heartbeat lines while a group
	// measures (0 = 500ms). It must be well under the coordinator's lease
	// timeout.
	Heartbeat time.Duration
	// Store is the worker's own journaled measurement store (nil = fresh
	// in-memory store). With a durable store, a worker that already measured
	// a group answers repeat leases from local cache with zero simulations —
	// across its own restarts and across coordinator restarts. The worker's
	// farm owns the store and closes it on Close.
	Store *farm.Store
	// Measure, when non-nil, replaces the compile+simulate executor
	// (test seam).
	Measure farm.MeasureFunc
	// Log receives progress lines; nil silences them.
	Log io.Writer
}

// maxGroupBody bounds a /v1/group request body, as serve bounds its own: a
// group is one workload's source and some hundreds of 25-value points.
const maxGroupBody = 8 << 20

// jointVars is the arity of a leased point.
var jointVars = doe.JointSpace().NumVars()

// Worker wraps a local farm behind the group-lease API. Scheduling, dedup
// and cross-worker durability stay coordinator-side, so a worker can be
// killed and replaced at any moment without losing anything but in-flight
// work (which the coordinator requeues on lease expiry) — but each worker
// keeps its own partition of the measurement store: results it computed,
// journaled locally, served back instantly on repeat leases and shipped to
// the coordinator as deltas via GET /v1/store.
type Worker struct {
	farm *farm.Farm
	boot string // identifies this process lifetime; store cursors are scoped to it
	hb   time.Duration
	log  io.Writer
	mux  *http.ServeMux

	groups atomic.Int64
	start  time.Time
}

// NewWorker builds a worker over a fresh local farm.
func NewWorker(opts WorkerOptions) *Worker {
	w := &Worker{
		farm: farm.New(farm.Options{
			Workers: opts.Workers,
			Measure: opts.Measure,
			Store:   opts.Store,
			Log:     opts.Log,
		}),
		boot:  fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()),
		hb:    opts.Heartbeat,
		log:   opts.Log,
		start: time.Now(),
	}
	if w.hb <= 0 {
		w.hb = 500 * time.Millisecond
	}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("POST /v1/group", w.handleGroup)
	w.mux.HandleFunc("GET /v1/store", w.handleStore)
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// Close drains the local farm.
func (w *Worker) Close() error { return w.farm.Close() }

// Stats exposes the local farm's counters (for the healthz payload and
// tests).
func (w *Worker) Stats() farm.Stats { return w.farm.Stats() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.log != nil {
		fmt.Fprintf(w.log, format+"\n", args...)
	}
}

// handleGroup measures one leased group and streams the outcome. The group
// runs through the local farm's batch planner, so all points (which share a
// binary by construction) are compiled once and interpreted once —
// bit-for-bit identical to the coordinator running them in-process. While
// the measurement runs, heartbeat lines keep the coordinator's lease alive;
// a worker that dies mid-group simply stops writing, and the coordinator's
// read deadline expires the lease.
func (w *Worker) handleGroup(rw http.ResponseWriter, r *http.Request) {
	var req GroupRequest
	r.Body = http.MaxBytesReader(rw, r.Body, maxGroupBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Points) == 0 {
		http.Error(rw, "empty group", http.StatusBadRequest)
		return
	}
	// The planner slices each point by the joint space's layout (doe.ToConfig
	// under farm.BinaryKey) on a goroutine net/http cannot recover a panic of,
	// so a point of the wrong arity must not get that far. Ranges are not
	// checked: Fig3 sweeps the unroll factor from below the box the models
	// are fitted over, and a worker measures what the coordinator keyed.
	for i, p := range req.Points {
		if len(p) != jointVars {
			http.Error(rw, fmt.Sprintf("point %d has %d values, want %d", i, len(p), jointVars), http.StatusBadRequest)
			return
		}
	}
	jobs := jobsFromWire(&req)
	w.logf("worker: lease %s: %s, %d points", req.Lease, jobs[0].Workload.Key(), len(jobs))

	type outcome struct {
		res  []farm.Result
		errs []error
		// localHits is how many points the local store answered: the farm's
		// counters are process-global, and the coordinator wants an exact
		// per-group number for the done line.
		localHits int
	}
	done := make(chan outcome, 1)
	go func() {
		res, errs, hits := w.farm.Run(r.Context(), jobs)
		done <- outcome{res, errs, hits}
	}()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rw)
	flush := func() {
		if f, ok := rw.(http.Flusher); ok {
			f.Flush()
		}
	}
	ticker := time.NewTicker(w.hb)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			enc.Encode(GroupLine{Heartbeat: true})
			flush()
		case out := <-done:
			for i := range jobs {
				line := GroupLine{Result: true, Index: i}
				if err := out.errs[i]; err != nil {
					line.Error = err.Error()
					line.Class = farm.Classify(err).String()
				} else {
					line.Cycles = out.res[i].Cycles
					line.Energy = out.res[i].Energy
					line.Instrs = out.res[i].Instructions
				}
				enc.Encode(line)
			}
			enc.Encode(GroupLine{Done: true, LocalHits: out.localHits})
			flush()
			w.groups.Add(1)
			return
		case <-r.Context().Done():
			// The coordinator hung up (lease cancelled after a hedge won,
			// or drain): DoJobs sees the same context and unwinds.
			<-done
			return
		}
	}
}

// handleStore ships the worker's store delta: everything recorded after the
// caller's cursor, or everything the store holds when the cursor belongs to
// a different boot of this worker (cursors index the store's arrival order,
// which does not survive a restart). Re-sending is safe — the coordinator's
// merge skips entries it already holds.
func (w *Worker) handleStore(rw http.ResponseWriter, r *http.Request) {
	cursor, _ := strconv.Atoi(r.URL.Query().Get("cursor"))
	if r.URL.Query().Get("boot") != w.boot {
		cursor = 0
	}
	entries, next := w.farm.Store().Since(cursor)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(StoreDelta{Boot: w.boot, Next: next, Entries: entries})
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	st := w.farm.Stats()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(w.start).Seconds(),
		"groups_done":    w.groups.Load(),
		"sims":           st.SimsExecuted,
		"farm_workers":   st.Workers,
	})
}
