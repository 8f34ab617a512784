package dist

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/farm"
	"repro/internal/workloads"
)

// faultTransport is an http.RoundTripper that reads every lease response
// (POST /v1/group) whole before the coordinator sees a byte of it, so only a
// fault can hold a lease up, and hands the coordinator the first one through
// fault(body): cut short, reordered, repeated or stalled. Every other
// request and response passes through untouched.
type faultTransport struct {
	base  *http.Transport
	fault func(body []byte) io.Reader
	used  atomic.Bool
}

func (c *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/group" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var r io.Reader = bytes.NewReader(body)
	if !c.used.Swap(true) {
		r = c.fault(body)
	}
	resp.Body = io.NopCloser(r)
	return resp, nil
}

// stallReader reads nothing for its duration, then ends.
type stallReader time.Duration

func (d stallReader) Read([]byte) (int, error) {
	time.Sleep(time.Duration(d))
	return 0, io.EOF
}

// faultedSweep measures three shared-binary groups of three points, both
// responses, through a coordinator over two stub workers whose first lease
// stream crosses fault, holds every value to the in-process farm's bit for
// bit, and returns the coordinator's stats and log. lease is the
// coordinator's LeaseTimeout (0 = its default).
func faultedSweep(t *testing.T, fault func(body []byte) io.Reader, lease time.Duration) (farm.Stats, string) {
	t.Helper()
	w := workloads.MustGet("179.art", workloads.Train)
	points := sweepPoints(3, 3)
	local := farm.New(farm.Options{Workers: 2, Measure: stubMeasure(nil, 0)})
	defer local.Close()

	tr := &faultTransport{base: http.DefaultTransport.(*http.Transport).Clone(), fault: fault}
	var addrs []string
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
		ts := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { ts.Close(); wk.Close() }) // after the coordinator's
		addrs = append(addrs, ts.URL)
	}
	logs := &lockedLog{}
	co, err := New(Options{Dynamic: true, Client: &http.Client{Transport: tr}, LeaseTimeout: lease, Log: logs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close(); tr.base.CloseIdleConnections() })
	for _, addr := range addrs {
		if _, err := co.Register(addr); err != nil {
			t.Fatal(err)
		}
	}

	for _, resp := range []farm.Response{farm.Cycles, farm.Energy} {
		want, err := local.MeasureBatch(context.Background(), w, points, resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.MeasureBatch(context.Background(), w, points, resp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("response %v point %d: %v, in-process farm %v", resp, i, got[i], want[i])
			}
		}
	}
	if !tr.used.Load() {
		t.Fatal("no lease stream crossed the transport")
	}
	return co.Stats(), logs.String()
}

// lineOffset is the offset of the first line of body that starts with
// prefix, plus skip; the test fails when there is none.
func lineOffset(t *testing.T, body []byte, prefix string, skip int) int {
	for off := 0; off < len(body); {
		if bytes.HasPrefix(body[off:], []byte(prefix)) {
			return off + skip
		}
		next := bytes.IndexByte(body[off:], '\n')
		if next < 0 {
			break
		}
		off += next + 1
	}
	t.Errorf("lease stream has no line starting %s:\n%s", prefix, body)
	return len(body)
}

// TestCutLeaseStreamRequeues cuts one group's first lease stream on the
// coordinator's side of the wire, mid-JSON and between lines, where the
// failure tests kill a handler between whole lines. At every offset the cut
// lease is requeued once, no caller sees an error, and the sweep equals the
// in-process farm's to the bit.
func TestCutLeaseStreamRequeues(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(t *testing.T, body []byte) int
	}{
		{"after the headers", func(*testing.T, []byte) int { return 0 }},
		{"inside the first result line", func(t *testing.T, b []byte) int { return lineOffset(t, b, `{"result":true`, 5) }},
		{"after the first result line", func(t *testing.T, b []byte) int {
			off := lineOffset(t, b, `{"result":true`, 0)
			return off + bytes.IndexByte(b[off:], '\n') + 1
		}},
		{"inside the done line", func(t *testing.T, b []byte) int { return lineOffset(t, b, `{"done":true`, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := faultedSweep(t, func(body []byte) io.Reader {
				return io.MultiReader(bytes.NewReader(body[:tc.cut(t, body)]), iotest.ErrReader(io.ErrUnexpectedEOF))
			}, 0)
			if st.GroupsRequeued != 1 || st.Failures != 0 {
				t.Fatalf("requeued=%d failures=%d, want one requeue and no failure", st.GroupsRequeued, st.Failures)
			}
		})
	}
}

// TestFaultedLeaseStream delays, duplicates and reorders lines of one group's
// first lease stream. Results in another order are still the group's (the
// stream protocol allows any order), a repeated result line is a StreamError
// and a stall past the lease timeout before the done line an expiry, each
// requeued once; every case ends with the in-process farm's results, bit for
// bit.
func TestFaultedLeaseStream(t *testing.T) {
	// resultLines splits a lease body around its result lines, which the
	// worker writes together after its heartbeats and before its done line.
	resultLines := func(t *testing.T, body []byte) (head []byte, results [][]byte, tail []byte) {
		first := lineOffset(t, body, `{"result":true`, 0)
		done := lineOffset(t, body, `{"done":true`, 0)
		return body[:first], bytes.SplitAfter(body[first:done], []byte("\n"))[:3], body[done:]
	}
	// The stalled lease expires after 10 ms. The others get the default
	// lease: under the race detector at GOMAXPROCS 1 a lease as short as a
	// millisecond can expire between two lines read from memory.
	const lease = 10 * time.Millisecond
	for _, tc := range []struct {
		name     string
		fault    func(t *testing.T, body []byte) io.Reader
		lease    time.Duration
		requeued int64
		logged   string // what the requeue line names; "" when there is none
	}{
		{"result lines reversed", func(t *testing.T, b []byte) io.Reader {
			head, res, tail := resultLines(t, b)
			return io.MultiReader(bytes.NewReader(head), bytes.NewReader(res[2]), bytes.NewReader(res[1]),
				bytes.NewReader(res[0]), bytes.NewReader(tail))
		}, 0, 0, ""},
		{"a result line repeated", func(t *testing.T, b []byte) io.Reader {
			head, res, tail := resultLines(t, b)
			return io.MultiReader(bytes.NewReader(head), bytes.NewReader(res[0]), bytes.NewReader(res[0]),
				bytes.NewReader(res[1]), bytes.NewReader(res[2]), bytes.NewReader(tail))
		}, 0, 1, "duplicate result index 0"},
		{"a stall before the done line", func(t *testing.T, b []byte) io.Reader {
			done := lineOffset(t, b, `{"done":true`, 0)
			return io.MultiReader(bytes.NewReader(b[:done]), stallReader(20*lease), bytes.NewReader(b[done:]))
		}, lease, 1, "lease expired"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, log := faultedSweep(t, func(body []byte) io.Reader { return tc.fault(t, body) }, tc.lease)
			if st.GroupsRequeued != tc.requeued || st.Failures != 0 {
				t.Fatalf("requeued=%d failures=%d, want %d and none:\n%s", st.GroupsRequeued, st.Failures, tc.requeued, log)
			}
			if tc.logged != "" && strings.Count(log, tc.logged) != 1 {
				t.Fatalf("want one requeue naming %q:\n%s", tc.logged, log)
			}
		})
	}
}
