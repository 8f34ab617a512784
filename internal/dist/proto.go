// Package dist is the distributed measurement plane: a coordinator that
// shards farm batches across N empirico-worker processes over HTTP.
//
// The dispatch unit is a shared-binary group, not a point: the coordinator
// plans batches into farm.BinaryKey groups exactly as farm.DoJobs does and
// leases whole groups to workers, so the compile-once sharing of the batch
// planner survives distribution (a group split across workers would
// recompile per shard). Workers wrap a local
// farm over an optionally journaled worker-local store: a worker that
// already measured a group answers from its own cache with zero
// simulations, and the coordinator pulls each worker's whole store on
// checkpoint and merges it (idempotent, last-write-wins) into its own
// durable store — worker-local caches survive coordinator restarts and
// coordinator state survives worker churn. Results still journal through
// the coordinator's farm.Store the moment they stream in, so crash
// semantics are no weaker than the in-process plane.
//
// The fleet is elastic: workers join (POST /v1/register) and leave
// (DELETE /v1/register) a running coordinator, or are named at construction;
// both join the same way. Every worker states its slot count in the
// Empirico-Slots header of each lease response, and placement is
// capacity-weighted (least relative load against per-worker slot budgets)
// so heterogeneous fleets get load proportional to capacity.
//
// Failure handling lives entirely on the coordinator: a group is on one
// lease at a time; a lease whose result stream goes silent past the lease
// timeout expires and the group is requeued to another worker; per-worker
// slot budgets provide backpressure.
package dist

import (
	"repro/internal/farm"
	"repro/internal/workloads"
)

// GroupRequest leases one shared-binary group to a worker: every point
// carries the same compiler subvector and issue width, so the worker's own
// batch planner compiles once for the whole group.
type GroupRequest struct {
	// Lease identifies this lease in worker logs; each requeue of the same
	// group carries a new lease ID.
	Lease string `json:"lease"`
	// Workload carries the source text: farm keys hash it, and a worker must
	// measure exactly what the coordinator keyed (generated workloads have no
	// name registry to resolve against).
	Workload workloads.Workload `json:"workload"`
	Points   [][]int64          `json:"points"`
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
	// Error carries a per-point failure and Budget marks it as an
	// instruction-budget overrun; the coordinator rebuilds it as a
	// farm.RemoteError, so BudgetOverruns counts remote overruns too.
	Error  string `json:"error,omitempty"`
	Budget bool   `json:"budget,omitempty"`

	// Done terminates the stream. LocalHits rides on the done line: how many
	// of the group's points the worker answered from its own journaled store
	// without simulating (the partitioned-store cache-hit path).
	Done      bool `json:"done,omitempty"`
	LocalHits int  `json:"local_hits,omitempty"`
}

// slotsHeader carries a worker's lease budget on every /v1/group response:
// its farm's slot count, the simulations it runs at once.
const slotsHeader = "Empirico-Slots"

// maxSlots caps the budget a worker may state. Placement cross-multiplies
// slot counts, so an unbounded statement overflows the comparison; no pool
// is anywhere near this size.
const maxSlots = 1 << 12

// RegisterRequest announces a worker to a running coordinator
// (POST /v1/register) or withdraws it (DELETE /v1/register). Addr is the
// address the coordinator should lease groups to.
type RegisterRequest struct {
	Addr string `json:"addr"`
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

// StoreDelta is a worker's answer to GET /v1/store: every entry its store
// holds, in no particular order.
type StoreDelta struct {
	Entries []farm.KV `json:"entries"`
}

// result converts a result line back into the farm's types.
func (l GroupLine) result() (farm.Result, error) {
	if l.Error != "" {
		return farm.Result{}, &farm.RemoteError{Msg: l.Error, Budget: l.Budget}
	}
	return farm.Result{Cycles: l.Cycles, Energy: l.Energy, Instructions: l.Instrs}, nil
}
