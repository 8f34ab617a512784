package farm

import (
	"container/list"
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BinaryKey returns the identity of the compiled binary a job needs: the
// workload (name and source text) plus everything the compiler sees — the
// 14-flag compiler subvector and the target issue width, which
// doe.ToOptions reads out of the microarchitecture block for scheduling.
// Two jobs with equal binary keys compile to the same *isa.Program, and
// therefore produce the same committed-instruction stream; only the timing
// differs. The version tag is shared with Key so semantic changes
// invalidate both identities together.
func BinaryKey(w workloads.Workload, p doe.Point) string {
	cfg := doe.ToConfig(p)
	h := fnv.New64a()
	fmt.Fprintf(h, "v3|%s|%s|w%d|", w.Key(), w.Source, cfg.IssueWidth)
	for _, v := range p[:doe.NumCompilerVars] {
		fmt.Fprintf(h, "%d,", v)
	}
	return fmt.Sprintf("%s|bin%x", w.Key(), h.Sum64())
}

// compileFn builds the binary for a job; the Farm's instance defaults to
// the real compiler and is swappable in tests to inject compile failures.
type compileFn func(w workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error)

func defaultCompile(w workloads.Workload, p doe.Point, cfg sim.Config) (*isa.Program, error) {
	prog, _, err := compiler.Compile(w.Parse(), doe.ToOptions(p, cfg.IssueWidth))
	return prog, err
}

// binEntry is one cache slot; ready is closed once prog/err are final.
type binEntry struct {
	key   string
	ready chan struct{}
	done  bool // guarded by binaryCache.mu; set before ready closes
	prog  *isa.Program
	err   error
}

// binaryCache is a bounded LRU of compiled binaries with single-flight
// builds: concurrent requests for the same key trigger one compile, with
// later callers waiting on the first. Failed builds are removed before
// their waiters wake, so an error is delivered to everyone who joined the
// attempt but never poisons the cache — the next request compiles afresh.
type binaryCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order *list.List // front = most recently used, of *binEntry
}

func newBinaryCache(capacity int) *binaryCache {
	return &binaryCache{cap: capacity, m: map[string]*list.Element{}, order: list.New()}
}

// get returns the binary for key, building it with build on a miss. hit
// reports whether the result came from the cache (including joining an
// in-flight build).
func (c *binaryCache) get(key string, build func() (*isa.Program, error)) (prog *isa.Program, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*binEntry)
		c.mu.Unlock()
		<-e.ready
		return e.prog, true, e.err
	}
	e := &binEntry{key: key, ready: make(chan struct{})}
	el := c.order.PushFront(e)
	c.m[key] = el
	// Evict least-recently-used completed entries; in-flight builds are
	// skipped (their waiters hold the entry anyway), so the cache may
	// briefly exceed cap under heavy concurrency.
	for back := c.order.Back(); c.order.Len() > c.cap && back != nil; {
		prev := back.Prev()
		if be := back.Value.(*binEntry); be.done {
			delete(c.m, be.key)
			c.order.Remove(back)
		}
		back = prev
	}
	c.mu.Unlock()

	prog, err = build()
	c.mu.Lock()
	e.prog, e.err = prog, err
	e.done = true
	if err != nil {
		// Never cache failures: waiters already holding e still see err,
		// but the next caller starts a fresh build.
		if cur, ok := c.m[key]; ok && cur == el {
			delete(c.m, key)
			c.order.Remove(el)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return prog, false, err
}

// len reports the number of cached (or in-flight) binaries.
func (c *binaryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// compileCached resolves a job's binary through the farm's binary cache,
// wrapping failures as CompileError for Classify.
func (f *Farm) compileCached(w workloads.Workload, p doe.Point) (*isa.Program, sim.Config, error) {
	cfg := doe.ToConfig(p)
	prog, hit, err := f.bins.get(BinaryKey(w, p), func() (*isa.Program, error) {
		prog, cerr := f.compile(w, p, cfg)
		if cerr != nil {
			return nil, &CompileError{Workload: w.Key(), Err: cerr}
		}
		return prog, nil
	})
	f.Count(func() {
		if hit {
			f.pool.CompileCacheHits++
		} else {
			f.pool.CompileCacheMisses++
		}
	})
	return prog, cfg, err
}

// cachedExecutor is the farm's default MeasureFunc: Executor with the
// compile stage served by the shared binary cache, simulating through the
// basic-block translated engine.
func (f *Farm) cachedExecutor(ctx context.Context, job Job) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	prog, cfg, err := f.compileCached(job.Workload, job.Point)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	st, es, err := sim.SimulateEngine(prog, cfg, f.maxInstrs, sim.EngineBB)
	if err != nil {
		return Result{}, &SimError{Workload: job.Workload.Key(), Budget: sim.IsBudget(err), Err: err}
	}
	f.Count(func() {
		f.pool.BlocksTranslated += es.BlocksTranslated
		f.pool.TranslatedInstrs += es.TranslatedInstrs
		f.pool.SlowPathEntries += es.SlowPathEntries
	})
	return Result{
		Cycles:       float64(st.Cycles),
		Energy:       st.Energy,
		Instructions: st.Instructions,
	}, nil
}

// simulateShared executes one shared-binary group: compile once, interpret
// once, one timing consumer per point. Errors fan out to every member — a
// group failure is classified exactly like the per-job path (compile
// failures permanent, budget overruns ClassBudget), and the group path
// performs no transient retries because neither compile nor simulation can
// fail transiently (store IO retries live in the planner's persist).
func (f *Farm) simulateShared(g *Group, results []Result, errs []error) {
	f.Count(func() { f.dispatched++ })
	fail := func(err error) {
		for i := range errs {
			errs[i] = err
		}
	}
	if cerr := g.Ctx.Err(); cerr != nil {
		fail(cerr)
		return
	}
	prog, _, err := f.compileCached(g.Workload(), g.Tasks[0].Job.Point)
	if err != nil {
		fail(err)
		return
	}
	cfgs := make([]sim.Config, len(g.Tasks))
	for i, t := range g.Tasks {
		cfgs[i] = doe.ToConfig(t.Job.Point)
	}
	stats, serr := sim.SimulateMany(prog, cfgs, f.maxInstrs)
	if serr != nil {
		fail(&SimError{Workload: g.Workload().Key(), Budget: sim.IsBudget(serr), Err: serr})
		return
	}
	for i, st := range stats {
		results[i] = Result{
			Cycles:       float64(st.Cycles),
			Energy:       st.Energy,
			Instructions: st.Instructions,
		}
	}
}
