package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/lang"
)

// WorkerOptions configures a measurement worker.
type WorkerOptions struct {
	// Workers is the local farm's slot budget, the simulations it runs at
	// once (0 = GOMAXPROCS). The worker states the count on every lease it
	// answers, and the coordinator leases it that many groups at once.
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
// the coordinator whole via GET /v1/store.
type Worker struct {
	farm *farm.Farm
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

// handleGroup measures one leased group and streams the outcome. The group
// runs through the local farm's batch planner, so all points (which share a
// binary by construction) are compiled once, then simulated one by one —
// bit-for-bit identical to the coordinator running them in-process. While
// the measurement runs, heartbeat lines keep the coordinator's lease alive;
// a worker that dies mid-group simply stops writing, and the coordinator's
// read deadline expires the lease. The response states the worker's slots,
// the coordinator's lease budget for it.
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
	// so a point of the wrong arity must not get that far. The box the models
	// are fitted over is not checked (Fig3 sweeps unroll below it; a worker
	// measures what the coordinator keyed), but hard caps are: a point above
	// compiler.Options.Validate's or sim.Config.Validate's fails as its own
	// error line before anything is sized by it.
	jobs := make([]farm.Job, len(req.Points))
	for i, p := range req.Points {
		if len(p) != jointVars {
			http.Error(rw, fmt.Sprintf("point %d has %d values, want %d", i, len(p), jointVars), http.StatusBadRequest)
			return
		}
		jobs[i] = farm.Job{Workload: req.Workload, Point: doe.Point(p)}
	}
	// The farm parses the source on the same goroutines, with workloads.Parse,
	// which panics on source that does not parse or check.
	prog, err := lang.Parse(req.Workload.Source)
	if err == nil {
		err = lang.Check(prog)
	}
	if err != nil {
		http.Error(rw, "bad source: "+err.Error(), http.StatusBadRequest)
		return
	}
	if w.log != nil {
		fmt.Fprintf(w.log, "worker: lease %s: %s, %d points\n", req.Lease, req.Workload.Key(), len(jobs))
	}

	// hits is how many points the local store answered: the farm's counters
	// are process-global, and the done line wants an exact per-group number.
	var (
		res  []farm.Result
		errs []error
		hits int
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, errs, hits = w.farm.Run(r.Context(), jobs)
	}()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.Header().Set(slotsHeader, strconv.Itoa(w.farm.Stats().Workers))
	rw.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rw)
	flush := func() {
		if f, ok := rw.(http.Flusher); ok {
			f.Flush()
		}
	}
	flush() // the stated slots reach the coordinator now, not with the first line
	ticker := time.NewTicker(w.hb)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			enc.Encode(GroupLine{Heartbeat: true})
			flush()
		case <-done:
			for i := range jobs {
				line := GroupLine{Result: true, Index: i}
				if err := errs[i]; err != nil {
					line.Error = err.Error()
					line.Budget = farm.IsBudget(err)
				} else {
					line.Cycles = res[i].Cycles
					line.Energy = res[i].Energy
					line.Instrs = res[i].Instructions
				}
				enc.Encode(line)
			}
			enc.Encode(GroupLine{Done: true, LocalHits: hits})
			flush()
			w.groups.Add(1)
			return
		case <-r.Context().Done():
			// The coordinator hung up (lease cancelled by drain or close, or
			// its callers left): DoJobs sees the same context and unwinds.
			<-done
			return
		}
	}
}

// handleStore ships the worker's whole store. The coordinator's merge skips
// what it already holds, so a repeated pull costs traffic only.
func (w *Worker) handleStore(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(StoreDelta{Entries: w.farm.Store().Entries()})
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
