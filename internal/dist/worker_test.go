package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/sim"
)

// groupBody is a /v1/group request for the test workload at the given points.
func groupBody(t testing.TB, points ...[]int64) []byte {
	t.Helper()
	body, err := json.Marshal(GroupRequest{Lease: "t", Workload: toWire(distTestWorkload()), Points: points})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWorkerRejectsMalformedGroup posts points of the wrong arity to a worker
// running the real executor, whose planner slices every point by the joint
// space's layout on a goroutine net/http cannot recover a panic of: such a
// request used to end the process. Each gets 400, and the same worker then
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
	for name, body := range map[string][]byte{
		"short point":            groupBody(t, []int64{1, 2, 3}),
		"long point":             groupBody(t, append(append([]int64{}, valid...), 7)),
		"short point after good": groupBody(t, valid, valid[:doe.NumCompilerVars]),
		"body over the bound":    append(bytes.Repeat([]byte(" "), maxGroupBody), groupBody(t, valid)...),
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

// FuzzGroupRequest holds the worker's lease endpoint to its contract for
// bytes from outside the process: 200 with a stream or 400, never a panic.
// The executor is a stub, so what runs is the decode, the checks and the
// planner. The seed corpus under testdata/fuzz/FuzzGroupRequest names the
// cases that matter — a valid group, a short point, a 26-value point, a value
// outside the modelled range (measured: ranges are the coordinator's
// business), empty points, not JSON — and runs on every plain `go test`.
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
