package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/sim"
)

// groupBody is a /v1/group request for the test workload at the given points.
func groupBody(t testing.TB, points ...[]int64) []byte {
	t.Helper()
	body, err := json.Marshal(GroupRequest{Lease: "t", Workload: distTestWorkload(), Points: points})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWorkerRejectsMalformedGroup posts points of the wrong arity, and source
// that does not parse or check, to a worker running the real executor. Its
// planner slices every point by the joint space's layout, and its compiler
// parses the source, on goroutines net/http cannot recover a panic of: such
// requests used to end the process. Each gets 400, and the same worker then
// measures a valid group and answers /healthz.
func TestWorkerRejectsMalformedGroup(t *testing.T) {
	w := NewWorker(WorkerOptions{Workers: 1, Heartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(w.Handler())
	defer w.Close()
	defer ts.Close()
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/group", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(text)
	}

	valid := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	withSource := func(src string) []byte {
		wl := distTestWorkload()
		wl.Source = src
		body, err := json.Marshal(GroupRequest{Lease: "t", Workload: wl, Points: [][]int64{valid}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for name, body := range map[string][]byte{
		"short point":             groupBody(t, []int64{1, 2, 3}),
		"long point":              groupBody(t, append(append([]int64{}, valid...), 7)),
		"short point after good":  groupBody(t, valid, valid[:doe.NumCompilerVars]),
		"body over the bound":     append(bytes.Repeat([]byte(" "), maxGroupBody), groupBody(t, valid)...),
		"source that won't parse": withSource("int main( {"),
		"source that won't check": withSource("int main() { return nope; }"),
	} {
		if code, text := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%.120q)", name, code, text)
		}
	}

	code, text := post(groupBody(t, valid))
	if code != http.StatusOK {
		t.Fatalf("valid group after the malformed ones: status %d (%s)", code, text)
	}
	var result, done bool
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var gl GroupLine
		if err := json.Unmarshal([]byte(line), &gl); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if gl.Result && (gl.Error != "" || gl.Cycles <= 0) {
			t.Errorf("valid group measured as %+v", gl)
		}
		result, done = result || gl.Result, done || gl.Done
	}
	if !result || !done {
		t.Errorf("valid group's stream has no result or no done line:\n%s", text)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestWorkerFailsPointsAboveCaps leases a worker running the real executor
// one point above the compiler's unroll caps and one whose L1D is above the
// simulator's cache cap: the compiler refuses the first before any pass, the
// simulator the second before it allocates. Each point streams an error
// line, the stream ends with done, and the same worker then measures a
// valid group. Without the caps, far larger values exhaust the process's
// memory; these two are the cheapest that cross them. A valid point leased in
// one group with the over-cap one shares its binary but not its failure: it
// streams the cycles of its lone run.
func TestWorkerFailsPointsAboveCaps(t *testing.T) {
	w := NewWorker(WorkerOptions{Workers: 1, Heartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(w.Handler())
	defer w.Close()
	defer ts.Close()
	lines := func(points ...[]int64) []GroupLine {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/group", "application/json", bytes.NewReader(groupBody(t, points...)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out []GroupLine
		for dec := json.NewDecoder(resp.Body); dec.More(); {
			var gl GroupLine
			if err := dec.Decode(&gl); err != nil {
				t.Fatal(err)
			}
			if !gl.Heartbeat {
				out = append(out, gl)
			}
		}
		if len(out) == 0 || !out[len(out)-1].Done {
			t.Fatalf("stream does not end with done: %+v", out)
		}
		return out[:len(out)-1]
	}

	unroll := compiler.O2()
	unroll.UnrollLoops, unroll.MaxUnrollTimes, unroll.MaxUnrolledInsns = true, 101, 2501
	bigL1 := sim.DefaultConfig()
	bigL1.DCacheKB = 1<<16 + 1
	capped := lines(
		doe.JoinPoint(doe.FromOptions(unroll), doe.FromConfig(sim.DefaultConfig())),
		doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(bigL1)),
	)
	want := map[int]string{0: "max-unroll-times", 1: "cache sizes"}
	for _, gl := range capped {
		if !gl.Result || !strings.Contains(gl.Error, want[gl.Index]) {
			t.Errorf("point %d streamed %+v, want an error naming %q", gl.Index, gl, want[gl.Index])
		}
		delete(want, gl.Index)
	}
	if len(want) != 0 {
		t.Errorf("no line for points %v", want)
	}

	validPt := doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(sim.DefaultConfig()))
	alone, err := farm.Executor(0)(context.Background(), farm.Job{Workload: distTestWorkload(), Point: validPt})
	if err != nil {
		t.Fatal(err)
	}
	mixed := lines(validPt, doe.JoinPoint(doe.FromOptions(compiler.O2()), doe.FromConfig(bigL1)))
	if len(mixed) != 2 {
		t.Fatalf("mixed group streamed %d result lines, want 2", len(mixed))
	}
	for _, gl := range mixed {
		switch {
		case gl.Index == 0 && (gl.Error != "" || gl.Cycles != alone.Cycles):
			t.Errorf("valid point beside an over-cap one streamed %+v, want %v cycles", gl, alone.Cycles)
		case gl.Index == 1 && !strings.Contains(gl.Error, "cache sizes"):
			t.Errorf("over-cap point streamed %+v, want an error naming the cache sizes", gl)
		}
	}

	valid := lines(validPt)
	if len(valid) != 1 || valid[0].Error != "" || valid[0].Cycles <= 0 {
		t.Errorf("valid group after the capped one streamed %+v", valid)
	}
}

// FuzzGroupRequest holds the worker's lease endpoint to its contract for
// bytes from outside the process: 200 with a stream or 400, never a panic.
// The executor is a stub, so what runs is the decode, the checks and the
// planner. The seed corpus under testdata/fuzz/FuzzGroupRequest names the
// cases that matter — a valid group, a short point, a 26-value point, a value
// outside the modelled range (measured: ranges are the coordinator's
// business), values above the hard caps, a valid point sharing its binary
// with an over-cap one, empty points, not JSON, source that does not parse —
// and runs on every plain `go test`.
// TestWorkerRejectsMalformedGroup and TestWorkerFailsPointsAboveCaps hold the
// last and the caps against the real executor, which the stub here never
// reaches.
func FuzzGroupRequest(f *testing.F) {
	w := NewWorker(WorkerOptions{Workers: 1, Measure: stubMeasure(nil, 0)})
	f.Cleanup(func() { w.Close() })
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/group", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 200 or 400", body, rec.Code)
		}
	})
}
