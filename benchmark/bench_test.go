package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
)

// The reporting rule for timings: the highest percentile that still has at
// least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{5, 50, 3},            // too few for any tail: the median
		{19, 50, 10},          // nine beyond p50: still the median
		{20, 50, 10.5},        // exactly ten beyond p50
		{100, 90, 90},         // ten beyond p90, one beyond p99
		{999, 90, 900},        // 9.99 beyond p99
		{1000, 99, 990},       // ten beyond p99
		{10000, 99.9, 9990},   // ten beyond p99.9
		{100000, 99.9, 99900}, // the ladder ends at p99.9
	} {
		p, v := tailPercentile(ramp(c.n))
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: p%g = %g, want p%g = %g", c.n, p, v, c.wantP, c.wantV)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), which
// the acceptance rule for run-to-run spread is written in.
func TestQuartilesMatchPython(t *testing.T) {
	vs := []float64{4.06, 4.44, 4.21, 5.05, 4.43, 4.9, 4.3, 4.6, 4.45, 4.7}
	q1, q3 := quartiles(vs)
	if math.Abs(q1-4.2775) > 1e-9 || math.Abs(q3-4.75) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 4.2775, 4.75", q1, q3)
	}
	if got := spread(vs); math.Abs(got-(4.75-4.2775)/4.445) > 1e-9 {
		t.Errorf("spread = %v", got)
	}
}

// A run on a host at half the reference speed takes twice as long and
// answers half as many requests per second; both read as on the reference.
func TestAtHostSpeed(t *testing.T) {
	h := &hostClock{samples: []float64{2 * calibNominal, 1.9 * calibNominal, 2.2 * calibNominal}}
	f := h.factor()
	if f != 0.5 {
		t.Fatalf("factor = %v, want 0.5", f)
	}
	if got := atHostSpeed(3, "lower", f); got != 1.5 {
		t.Errorf("a 3 s pass reads as %v s, want 1.5", got)
	}
	if got := atHostSpeed(40, "higher", f); got != 80 {
		t.Errorf("40 requests/s read as %v, want 80", got)
	}
}

// keepUp spends the samples' share of the run and no more than one sample
// beyond it.
func TestHostClockKeepsUp(t *testing.T) {
	h := newHostClock(1)
	h.keepUp()
	if len(h.samples) != 1 {
		t.Fatalf("%d samples at the start, want 1", len(h.samples))
	}
	h.keepUp()
	if len(h.samples) != 1 {
		t.Errorf("%d samples with the share already spent, want 1", len(h.samples))
	}
	h.start = h.start.Add(-time.Duration(2 * h.spent / calibShare * float64(time.Second)))
	h.keepUp()
	if len(h.samples) < 2 {
		t.Errorf("no sample taken when the run had outgrown the samples' share")
	}
}

func mkSpan(id, parent int64, start, end int64) span {
	return span{ID: id, Parent: parent, Layer: "l", Name: "n", StartNS: start, EndNS: end}
}

func TestSelfTimes(t *testing.T) {
	// A root with two stages one after the other; the second has two
	// children that overlap, as two workers do.
	spans := []span{
		mkSpan(1, 0, 0, 100),
		mkSpan(2, 1, 10, 40),
		mkSpan(3, 1, 40, 90),
		mkSpan(4, 3, 45, 70),
		mkSpan(5, 3, 60, 85),
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 20, 2: 30, 3: 10, 4: 25, 5: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Without the overlapping grandchildren the tree runs one span at a
	// time, and the self times sum to the root.
	seq := spans[:3]
	var total time.Duration
	for _, d := range selfTimes(seq) {
		total += d
	}
	if total != 100 {
		t.Errorf("self times of a sequential tree sum to %d, the root lasts 100", total)
	}
	// A child that outlasts its parent is clipped to it.
	clipped := selfTimes([]span{mkSpan(1, 0, 0, 50), mkSpan(2, 1, 40, 80)})
	if clipped[1] != 40 {
		t.Errorf("self time with an overhanging child = %d, want 40", clipped[1])
	}
}

func TestNilTracerIsSilent(t *testing.T) {
	var tr *tracer
	sp := tr.start(0, "", "l", "n")
	if sp.id() != 0 || sp.end("k", int64(1)) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
	tr.record(0, "", "l", "n", time.Now(), time.Now())
}

func TestDigest(t *testing.T) {
	a := measured{job: farm.Job{}, cycles: 100, energy: 2.5}
	b := measured{job: farm.Job{}, cycles: 200, energy: 3.5}
	if digestOf([]measured{a, b}) == digestOf([]measured{b, a}) {
		t.Error("the digest ignores the order of requests")
	}
	c := a
	c.energy = math.Nextafter(c.energy, 3)
	if digestOf([]measured{a}) == digestOf([]measured{c}) {
		t.Error("the digest ignores the last bit of the energy")
	}
	if digestOf([]measured{a, b}) != digestOf([]measured{a, b}) {
		t.Error("the digest is not a function of its input")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "points_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10), verdictOK},
		{"slower within the bound", lower, tight(10), tight(10.9), verdictOK},
		{"slower beyond the bound", lower, tight(10), tight(11.5), verdictWorse},
		{"faster", lower, tight(10), tight(5), verdictOK},
		{"less throughput beyond the bound", higher, tight(100), tight(80), verdictWorse},
		{"more throughput", higher, tight(100), tight(150), verdictOK},
		{"a set too wide to tell", lower, []float64{8, 10, 12}, tight(11.5), verdictUnresolved},
		{"the other set too wide to tell", lower, tight(10), []float64{8, 10, 12}, verdictUnresolved},
	} {
		if got := judge(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareTable(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	set := func(wall float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"sweep-cold": {"wall_s": {wall, wall * 1.01, wall * 0.99}}}
	}
	var out bytes.Buffer
	if rc := printComparison(&out, spec, set(4), set(4.1)); rc != 0 || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("rc %d for a change inside the bound:\n%s", rc, out.String())
	}
	out.Reset()
	if rc := printComparison(&out, spec, set(4), set(8)); rc != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("rc %d for a doubled wall time:\n%s", rc, out.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Errorf("%d lines for one metric on one workload, want a header and a row", n)
	}
}

// smoke runs every workload once at the smoke size and asserts what the
// contract asks of the output.
func smoke(t *testing.T, seed int64, traced bool) {
	spec, specDir, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	expected, err := loadExpected(specDir)
	if err != nil {
		t.Fatal(err)
	}
	size, err := sizeByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: seed, size: size, workers: workerCount(), scratch: t.TempDir(), expected: expected}
	digests := map[string]string{}
	for _, w := range spec.Workloads {
		rep, spans, err := runWorkload(w.Name, e, spec, 0, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
		}
		digests[w.Name] = rep.Digest
		list := spec.EndToEnd
		if traced {
			list = spec.PerLayer
		}
		if len(rep.Metrics) != len(list) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", w.Name, len(rep.Metrics), len(list))
		}
		for _, m := range list {
			got, ok := rep.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not emitted", w.Name, m.Name)
			case got.Unit != m.Unit || got.Unit == "":
				t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
			case !traced && got.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, got.Value)
			}
		}
		if !traced {
			continue
		}
		if len(spans) == 0 {
			t.Errorf("%s: a traced run recorded no spans", w.Name)
		}
		// Under each pass the stages run one after another: the pass's self
		// time and its stages' durations make up the pass.
		self := selfTimes(spans)
		for _, root := range spans {
			if root.Layer != "exp" || root.Name != "pass" {
				continue
			}
			total := self[root.ID]
			for _, s := range spans {
				if s.Parent == root.ID {
					total += s.dur()
				}
			}
			if d := total - root.dur(); d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("%s: stages and self time sum to %v, the pass lasts %v", w.Name, total, root.dur())
			}
		}
		if strings.HasPrefix(w.Name, "sweep-") {
			var stages float64
			for name, m := range rep.Metrics {
				if strings.HasPrefix(name, "exp.stage_") {
					stages += m.Value
				}
			}
			if stages <= 0 {
				t.Errorf("%s: the stage ledger is empty", w.Name)
			}
		}
		if w.Name == "sweep-warm" && (rep.Metrics["exp.sim_instrs"].Value != 0 || rep.Metrics["farm.cache_hit_ratio"].Value != 1) {
			t.Errorf("sweep-warm simulated %v instructions at hit ratio %v", rep.Metrics["exp.sim_instrs"].Value, rep.Metrics["farm.cache_hit_ratio"].Value)
		}
		if w.Name == "serve-mix" && rep.Metrics["serve.registry_fits"].Value != 0 {
			t.Errorf("serve-mix fitted %v models after a warm boot", rep.Metrics["serve.registry_fits"].Value)
		}
	}
	// sweep-warm always reads the pinned seed's designs, so it agrees with
	// sweep-cold on that seed.
	if seed == expected.Seed && digests["sweep-cold"] != digests["sweep-warm"] {
		t.Errorf("sweep-warm read %s, sweep-cold measured %s", digests["sweep-warm"], digests["sweep-cold"])
	}
	if digests["march-sweep"] != digests["dist-sweep"] {
		t.Errorf("dist-sweep measured %s, march-sweep %s", digests["dist-sweep"], digests["march-sweep"])
	}
}

// Seed 1 is the pinned seed: its digests are compared with expected.json.
// The traced run covers both kinds of pass and the layer replays.
func TestSmokeTracedSeed1(t *testing.T) { smoke(t, 1, true) }

// Another seed must pass every check that is not a pin.
func TestSmokeSeed2(t *testing.T) { smoke(t, 2, false) }

// Every per-layer metric of BENCHMARK.json is the business of some module of
// the repository, named by its prefix.
func TestLayerNames(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	modules := map[string]bool{"exp": true, "compiler": true, "sim": true, "smarts": true, "farm": true,
		"doe": true, "model": true, "search": true, "dist": true, "serve": true}
	for _, m := range spec.PerLayer {
		layer, _, ok := strings.Cut(m.Name, ".")
		if !ok && m.Name == "trace_overhead_pct" {
			continue
		}
		if !ok || !modules[layer] {
			t.Errorf("per-layer metric %s does not name a module", m.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
}
