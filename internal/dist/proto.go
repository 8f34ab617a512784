// Package dist is the distributed measurement plane: a coordinator that
// shards farm batches across N empirico-worker processes over HTTP.
//
// The dispatch unit is a shared-binary group, not a point: the coordinator
// plans batches into farm.BinaryKey groups exactly as farm.DoJobs does and
// leases whole groups to workers, so the compile-once/interpret-once
// sharing of the batch planner survives distribution (a group split across
// workers would recompile and re-interpret per shard). Workers wrap a local
// farm over an optionally journaled worker-local store: a worker that
// already measured a group answers from its own cache with zero
// simulations, and the coordinator pulls each worker's store delta on
// checkpoint and merges it (idempotent, last-write-wins) into its own
// durable store — worker-local caches survive coordinator restarts and
// coordinator state survives worker churn. Results still journal through
// the coordinator's farm.Store the moment they stream in, so crash
// semantics are no weaker than the in-process plane.
//
// The fleet is elastic: workers join (POST /v1/register) and leave
// (DELETE /v1/register) a running coordinator, advertising their slot count
// at registration; placement is capacity-weighted (least relative load
// against per-worker slot budgets) so heterogeneous fleets get load
// proportional to capacity.
//
// Failure handling lives entirely on the coordinator: a lease whose result
// stream goes silent past the lease timeout expires and the group is
// requeued to another worker; a group that exceeds ~p95 of completed group
// latencies is hedged (re-leased to a second worker that is not already
// leasing it, only when the fleet has spare capacity, first result wins
// through the coordinator's single-flight dedup); per-worker slot budgets
// provide backpressure.
package dist

import (
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// WireWorkload is the full workload identity on the wire. The source text
// travels too: farm keys hash it, and workers must measure exactly what the
// coordinator keyed (generated workloads — benchmarks, future workload
// generators — have no name registry to resolve against).
type WireWorkload struct {
	Name   string `json:"name"`
	Input  string `json:"input"`
	Class  string `json:"class"`
	Source string `json:"source"`
}

func toWire(w workloads.Workload) WireWorkload {
	return WireWorkload{Name: w.Name, Input: w.Input, Class: string(w.Class), Source: w.Source}
}

// Workload reconstructs the workload a request describes.
func (ww WireWorkload) Workload() workloads.Workload {
	return workloads.Workload{
		Name:   ww.Name,
		Input:  ww.Input,
		Class:  workloads.InputClass(ww.Class),
		Source: ww.Source,
	}
}

// GroupRequest leases one shared-binary group to a worker: every point
// carries the same compiler subvector and issue width, so the worker's own
// batch planner compiles once and interprets once for the whole group.
type GroupRequest struct {
	// Lease identifies this lease in worker logs; retries and hedges of
	// the same group carry distinct lease IDs.
	Lease    string       `json:"lease"`
	Workload WireWorkload `json:"workload"`
	Points   [][]int64    `json:"points"`
}

// GroupLine is one line of the worker's streamed ndjson response. While the
// group measures, the worker emits heartbeat lines (the coordinator's lease
// stays alive as long as lines keep arriving); when the group completes it
// emits one result line per point, in request order, then a done line.
type GroupLine struct {
	Heartbeat bool `json:"hb,omitempty"`

	// Result fields; a line is a result when Result is true.
	Result bool    `json:"result,omitempty"`
	Index  int     `json:"i,omitempty"`
	Cycles float64 `json:"cycles,omitempty"`
	Energy float64 `json:"energy,omitempty"`
	Instrs int64   `json:"instrs,omitempty"`
	// Error and Class carry a per-point failure with its retry class
	// ("permanent", "budget", "transient"), reconstructed coordinator-side
	// as farm.RemoteError so classification survives the wire.
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`

	// Done terminates the stream. LocalHits rides on the done line: how many
	// of the group's points the worker answered from its own journaled store
	// without simulating (the partitioned-store cache-hit path).
	Done      bool `json:"done,omitempty"`
	LocalHits int  `json:"local_hits,omitempty"`
}

// RegisterRequest announces a worker to a running coordinator
// (POST /v1/register) or withdraws it (DELETE /v1/register). Addr is the
// address the coordinator should lease groups to; Slots is the worker's
// advertised capacity (its local farm's pool size), the input to
// capacity-weighted placement.
type RegisterRequest struct {
	Addr  string `json:"addr"`
	Slots int    `json:"slots,omitempty"`
}

// RegisterResponse acknowledges a registration change with the
// coordinator's current fleet size.
type RegisterResponse struct {
	OK      bool `json:"ok"`
	Workers int  `json:"workers"`
}

// WorkerInfo is one row of GET /v1/workers, the coordinator's view of a
// fleet member.
type WorkerInfo struct {
	Addr     string `json:"addr"`
	Slots    int    `json:"slots"`
	InFlight int    `json:"in_flight"`
	Live     bool   `json:"live"`
	Removed  bool   `json:"removed,omitempty"`
}

// StoreDelta is a worker's answer to GET /v1/store?cursor=N: every entry its
// journaled store recorded after the cursor, plus the next cursor and the
// worker's boot identity. Cursors are positions in the worker store's
// arrival order and are only comparable within one boot — a coordinator
// holding a cursor from a previous boot re-pulls from zero (merge is
// idempotent, so the re-pull is just traffic).
type StoreDelta struct {
	Boot    string    `json:"boot"`
	Next    int       `json:"next"`
	Entries []farm.KV `json:"entries"`
}

// result converts a result line back into the farm's types.
func (l GroupLine) result() (farm.Result, error) {
	if l.Error != "" {
		return farm.Result{}, &farm.RemoteError{Msg: l.Error, Class: farm.ClassFromString(l.Class)}
	}
	return farm.Result{Cycles: l.Cycles, Energy: l.Energy, Instructions: l.Instrs}, nil
}

// wirePoints flattens doe points for JSON.
func wirePoints(tasks []*farm.Task) [][]int64 {
	pts := make([][]int64, len(tasks))
	for i, t := range tasks {
		pts[i] = []int64(t.Job.Point)
	}
	return pts
}

// jobsFromWire rebuilds farm jobs from a request.
func jobsFromWire(req *GroupRequest) []farm.Job {
	w := req.Workload.Workload()
	jobs := make([]farm.Job, len(req.Points))
	for i, raw := range req.Points {
		jobs[i] = farm.Job{Workload: w, Point: doe.Point(raw)}
	}
	return jobs
}
