package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/dist"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/workloads"
)

// march is the Table 7 / Fig 3 / Fig 7 shape: every program at -O2 and -O3 on
// one Latin-hypercube draw of the microarchitecture space. Jobs of one binary
// differ only in the configuration, so the planner groups them and the
// simulator interprets once per group. march-sweep runs the jobs on the
// in-process farm; dist-sweep runs the same jobs through the coordinator and
// two single-slot workers on loopback, each with its own journaled store.
type march struct {
	e        *env
	dist     bool
	programs []workloads.Workload

	lastJobs []farm.Job
	last     []measured
}

func newMarch(e *env, distributed bool) (*march, error) {
	m := &march{e: e, dist: distributed}
	for _, name := range e.size.marchPrograms {
		w, err := workloads.Get(name, workloads.Train)
		if err != nil {
			return nil, err
		}
		m.programs = append(m.programs, w)
	}
	return m, nil
}

// jobs draws the configurations. Both workloads use the same purpose string,
// so for one seed they measure the same jobs and must agree.
func (m *march) jobs(draw, points int) []farm.Job {
	cfgs := doe.MicroarchSpace().LatinHypercube(points, m.e.rng("march", draw))
	var jobs []farm.Job
	for _, w := range m.programs {
		for _, opt := range []compiler.Options{compiler.O2(), compiler.O3()} {
			flags := doe.FromOptions(opt)
			for _, c := range cfgs {
				jobs = append(jobs, farm.Job{Workload: w, Point: doe.JoinPoint(flags, c)})
			}
		}
	}
	return jobs
}

// setUp parses the programs and runs a two-configuration sweep through the
// same plane the passes use, so that parsing, connection set-up and heap
// growth are paid before timing starts.
func (m *march) setUp() error {
	out, err := m.sweep(m.jobs(1, 2), nil, nil)
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed", out.failed, out.attempted)
	}
	return nil
}

func (m *march) tearDown() {}

func (m *march) pass(i int, tr *tracer) (*passOut, error) {
	jobs := m.jobs(0, m.e.size.marchPoints)
	var rec *leaseRecorder
	if tr != nil && m.dist {
		rec = &leaseRecorder{tr: tr}
	}
	out, err := m.sweep(jobs, tr, rec)
	if err != nil {
		return nil, err
	}
	m.lastJobs = jobs
	return out, nil
}

// sweep measures the jobs once and reports the pass. Both planes are a
// farm.Backend, so one timed sequence serves both: DoJobs, for the
// distributed plane the pull of the workers' store deltas, then Close.
func (m *march) sweep(jobs []farm.Job, tr *tracer, rec *leaseRecorder) (*passOut, error) {
	po := &passOut{e2e: map[string]float64{}, layer: map[string]float64{}, attempted: int64(len(jobs))}
	var backend farm.Backend
	var pl *plane
	if m.dist {
		var err error
		if pl, err = newPlane(m.e, rec); err != nil {
			return nil, err
		}
		defer pl.stop()
		backend = pl.coord
	} else {
		backend = farm.New(farm.Options{Workers: m.e.workers, Store: farm.MemStore()})
	}
	root := tr.start(0, "", "exp", "pass")
	start := time.Now()
	sp := tr.start(root.id(), "", "exp", "measure")
	res, errs := backend.DoJobs(context.Background(), jobs)
	measureS := time.Since(start).Seconds()
	sp.end("jobs", int64(len(jobs)))
	if pl != nil {
		sp := tr.start(root.id(), "", "dist", "pull_merge")
		t0 := time.Now()
		_, conflicts := pl.coord.PullDeltas(context.Background())
		po.layer["dist.pull_merge_ms"] = 1000 * time.Since(t0).Seconds()
		sp.end()
		if conflicts != 0 {
			// The coordinator already holds every streamed result; a worker
			// store that disagrees with the stream is a wrong answer.
			return nil, fmt.Errorf("%d worker store entries disagree with the streamed results", conflicts)
		}
	}
	stats := backend.Stats()
	if err := backend.Close(); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	root.end()
	if pl != nil {
		pl.layer(po.layer, stats, measureS)
	}

	m.last = m.last[:0]
	for i, job := range jobs {
		if errs[i] != nil {
			po.failed++
			continue
		}
		m.last = append(m.last, measured{job, res[i].Cycles, res[i].Energy})
	}
	po.digest = digestOf(m.last)
	n := float64(len(jobs))
	po.e2e["wall_s"] = wall
	po.e2e["time_to_model_s"] = measureS
	po.e2e["time_to_setting_s"] = wall
	po.e2e["points_per_s"] = n / measureS
	po.e2e["req_per_s"] = n / wall
	po.layer["exp.stage_measure_s"] = measureS
	po.layer["exp.sim_instrs"] = float64(stats.InstrsSimulated)
	farmLayer(po.layer, stats)
	if m.dist {
		// The coordinator's own counters cover dispatch; the hit ratio and
		// utilization of the simulating farms are the workers'.
		delete(po.layer, "farm.utilization")
	}
	return po, nil
}

// plane is the distributed measurement plane of one pass.
type plane struct {
	coord   *dist.Coordinator
	workers []*dist.Worker
	servers []*httptest.Server
	rec     *leaseRecorder
}

// newPlane starts two single-slot workers behind loopback HTTP servers, each
// with a journaled store in its own directory, and a coordinator over them.
func newPlane(e *env, rec *leaseRecorder) (*plane, error) {
	p := &plane{rec: rec}
	dir, err := os.MkdirTemp(e.scratch, "plane-")
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		store, err := farm.Open(filepath.Join(dir, fmt.Sprintf("worker%d", i), "store.json"), nil)
		if err != nil {
			p.stop()
			return nil, err
		}
		w := dist.NewWorker(dist.WorkerOptions{Workers: 1, Store: store})
		var h http.Handler = w.Handler()
		if rec != nil {
			h = rec.handler(h)
		}
		srv := httptest.NewServer(h)
		p.workers = append(p.workers, w)
		p.servers = append(p.servers, srv)
		addrs = append(addrs, srv.URL)
	}
	opts := dist.Options{Addrs: addrs, Store: farm.MemStore()}
	if rec != nil {
		opts.Client = &http.Client{Transport: rec.transport(http.DefaultTransport)}
	}
	p.coord, err = dist.New(opts)
	if err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// stop closes the coordinator (a no-op after a pass closed it), the servers
// and the workers, and waits for each.
func (p *plane) stop() {
	if p.coord != nil {
		p.coord.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
	for _, w := range p.workers {
		w.Close()
	}
}

// layer reports the plane's overhead over the simulation it carried.
func (p *plane) layer(layer map[string]float64, st farm.Stats, measureS float64) {
	var busies []float64
	var maxBusy float64
	for _, w := range p.workers {
		b, _ := busy(w.Stats())
		busies = append(busies, b)
		if b > maxBusy {
			maxBusy = b
		}
	}
	layer["dist.overhead_s"] = measureS - maxBusy
	if mb := mean(busies); mb > 0 {
		min := busies[0]
		for _, b := range busies {
			if b < min {
				min = b
			}
		}
		layer["dist.worker_busy_skew"] = (maxBusy - min) / mb
	}
	layer["dist.groups_dispatched"] = float64(st.GroupsDispatched)
	layer["dist.groups_hedged"] = float64(st.GroupsHedged)
	layer["dist.groups_requeued"] = float64(st.GroupsRequeued)
	if p.rec != nil {
		if over := p.rec.overheads(); len(over) > 0 {
			layer["dist.lease_overhead_ms_p50"] = 1000 * median(over)
		}
	}
}

// leaseRecorder times each group lease on both sides of the wire without
// touching the worker's farm: a transport wrapper times the coordinator's
// request from send to end of stream, a handler wrapper times the worker's
// handling, and a response header carries the identifier that pairs them.
type leaseRecorder struct {
	tr   *tracer
	next atomic.Int64
	mu   sync.Mutex
	srv  map[string]time.Duration
	cli  map[string]time.Duration
}

const leaseHeader = "X-Bench-Lease"

func (r *leaseRecorder) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/group" {
			inner.ServeHTTP(rw, req)
			return
		}
		id := strconv.FormatInt(r.next.Add(1), 10)
		rw.Header().Set(leaseHeader, id)
		sp := r.tr.start(0, "lease-"+id, "dist", "worker_group")
		inner.ServeHTTP(rw, req)
		d := sp.end()
		r.mu.Lock()
		if r.srv == nil {
			r.srv = map[string]time.Duration{}
		}
		r.srv[id] = d
		r.mu.Unlock()
	})
}

func (r *leaseRecorder) transport(inner http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path != "/v1/group" {
			return inner.RoundTrip(req)
		}
		t0 := time.Now()
		resp, err := inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		id := resp.Header.Get(leaseHeader)
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			end := time.Now()
			r.tr.record(0, "lease-"+id, "dist", "lease", t0, end)
			r.mu.Lock()
			if r.cli == nil {
				r.cli = map[string]time.Duration{}
			}
			r.cli[id] = end.Sub(t0)
			r.mu.Unlock()
		}}
		return resp, nil
	})
}

// overheads pairs the two sides of every lease: the coordinator's view minus
// the worker's, in seconds.
func (r *leaseRecorder) overheads() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for id, c := range r.cli {
		if s, ok := r.srv[id]; ok {
			out = append(out, (c - s).Seconds())
		}
	}
	return out
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// timedBody calls done once, when the stream ends or is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

func (m *march) verify(rs *runState) []string {
	var fails []string
	if len(m.last) != len(m.lastJobs) {
		fails = append(fails, fmt.Sprintf("%d of %d jobs have a result", len(m.last), len(m.lastJobs)))
	}
	if m.dist {
		// The distributed plane must give what the in-process farm gives on
		// the same jobs, bit for bit.
		f := farm.New(farm.Options{Workers: m.e.workers, Store: farm.MemStore()})
		res, errs := f.DoJobs(context.Background(), m.lastJobs)
		f.Close()
		var local []measured
		for i, job := range m.lastJobs {
			if errs[i] == nil {
				local = append(local, measured{job, res[i].Cycles, res[i].Energy})
			}
		}
		if digestOf(local) != digestOf(m.last) {
			fails = append(fails, "the distributed plane and the in-process farm disagree on the same jobs")
		}
	}
	sl, f := replayReference(pick(m.last, m.e.size.referencePoints, m.e.rng("reference", 0)), m.e.expected, rs.tr)
	fails = append(fails, f...)
	if rs.tr != nil {
		sl.report(rs.layer)
		m.layers(rs)
	}
	return fails
}
