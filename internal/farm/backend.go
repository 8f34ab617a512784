package farm

import (
	"context"

	"repro/internal/doe"
	"repro/internal/workloads"
)

// Backend is the measurement-plane contract: everything the experiment
// harness and the HTTP service need from "the thing that turns jobs into
// results". The in-process Farm and the distributed coordinator
// (internal/dist) both satisfy it, so swapping one plane for the other is a
// construction-time decision — no exp or serve call site changes.
//
// Both get Do, DoJobs, Measure, MeasureBatch and Store from an embedded
// *Planner, which is what keeps the farm's semantics the same on either
// plane: results keyed by point and order-independent (bit-for-bit
// reproducible), single-flight deduplication of concurrent requests for the
// same point, and a caller-visible durable Store that Checkpoint flushes.
// Stats, Checkpoint and Close are each backend's own.
type Backend interface {
	// Do runs one job, deduplicated against concurrent requests.
	Do(ctx context.Context, job Job) (Result, error)
	// DoJobs runs a batch, planning jobs that share a binary into
	// compile-once/interpret-once groups; one result and one error per
	// job, in input order.
	DoJobs(ctx context.Context, jobs []Job) ([]Result, []error)
	// Measure and MeasureBatch are the response-selecting conveniences
	// every experiment path calls.
	Measure(ctx context.Context, w workloads.Workload, p doe.Point, resp Response) (float64, error)
	MeasureBatch(ctx context.Context, w workloads.Workload, points []doe.Point, resp Response) ([]float64, error)
	// Store exposes the backend's result store. On the distributed plane it
	// is the coordinator's: every streamed result is journaled here, and each
	// worker's own journaled store is merged into it on Checkpoint and Close.
	Store() *Store
	// Stats snapshots the backend's instrumentation counters tear-free.
	Stats() Stats
	// Checkpoint flushes the store's journal into its durable checkpoint.
	Checkpoint() error
	// Close stops the backend and closes the store. New work is rejected
	// afterwards.
	Close() error
}

// Drainer is the optional graceful-shutdown half of a Backend: stop
// admitting new work to executors, let in-flight work finish while ctx
// lasts, and requeue (abandon without losing store state) the rest. The
// distributed coordinator implements it so SIGTERM can bound how long
// outstanding worker leases are honoured; the in-process farm does not need
// it — Close already drains its queue.
type Drainer interface {
	Drain(ctx context.Context) error
}

// The in-process farm is the reference Backend implementation.
var _ Backend = (*Farm)(nil)
