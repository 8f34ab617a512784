package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one point, request
// or lease share Trace; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent"`
	Trace   string           `json:"trace,omitempty"`
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured path pays one nil
// check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; end records it.
type open struct {
	t *tracer
	s span
}

func (t *tracer) start(parent int64, trace, layer, name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Trace: trace, Layer: layer, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	}}
}

func (o open) id() int64 { return o.s.ID }

// end closes the span, attaching counts given as alternating name, value.
func (o open) end(counts ...any) time.Duration {
	if o.t == nil {
		return 0
	}
	o.s.EndNS = time.Since(o.t.t0).Nanoseconds()
	if len(counts) > 0 {
		o.s.Counts = map[string]int64{}
		for i := 0; i+1 < len(counts); i += 2 {
			o.s.Counts[counts[i].(string)] = counts[i+1].(int64)
		}
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// record adds a span whose ends were timed by the caller, for intervals that
// begin before the code that observes them runs (time spent queued).
func (t *tracer) record(parent int64, trace, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		ID: t.next.Add(1), Parent: parent, Trace: trace, Layer: layer, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the durations, in seconds, of every span of a layer and name.
func named(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes reduces spans to self time per span ID: a span's duration minus
// the part of its interval that its child spans cover. Children that overlap
// each other (parallel workers) are counted once, so self time is never
// negative and, for a tree whose siblings run one after another, the self
// times sum to the root's duration.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, hi int64
	hi = parent.StartNS
	for _, k := range kids {
		lo, end := k.StartNS, k.EndNS
		if lo < hi {
			lo = hi
		}
		if end > parent.EndNS {
			end = parent.EndNS
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// writeTrace stores the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
