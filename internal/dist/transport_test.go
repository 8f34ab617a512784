package dist

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/farm"
	"repro/internal/workloads"
)

// cutTransport is an http.RoundTripper that cuts the client side of one
// lease stream: it reads the first lease response (POST /v1/group) whole,
// hands the coordinator its first cut(body) bytes and then fails the read
// with io.ErrUnexpectedEOF, as a connection dropped mid-body does. Every
// other request and response passes through untouched.
type cutTransport struct {
	base *http.Transport
	cut  func(body []byte) int
	used atomic.Bool
}

func (c *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/group" || c.used.Swap(true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:c.cut(body)]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	return resp, nil
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
	w := workloads.MustGet("179.art", workloads.Train)
	points := sweepPoints(3, 3) // three shared-binary groups of three points
	local := farm.New(farm.Options{Workers: 2, Measure: stubMeasure(nil, 0)})
	defer local.Close()
	want := map[farm.Response][]float64{}
	for _, resp := range []farm.Response{farm.Cycles, farm.Energy} {
		v, err := local.MeasureBatch(context.Background(), w, points, resp)
		if err != nil {
			t.Fatal(err)
		}
		want[resp] = v
	}

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
			tr := &cutTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
			tr.cut = func(body []byte) int { return tc.cut(t, body) }
			var addrs []string
			for i := 0; i < 2; i++ {
				wk := NewWorker(WorkerOptions{Workers: 2, Measure: stubMeasure(nil, 0), Heartbeat: 10 * time.Millisecond})
				ts := httptest.NewServer(wk.Handler())
				t.Cleanup(func() { ts.Close(); wk.Close() }) // after the coordinator's
				addrs = append(addrs, ts.URL)
			}
			co, err := New(Options{Dynamic: true, Client: &http.Client{Transport: tr}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { co.Close(); tr.base.CloseIdleConnections() })
			for _, addr := range addrs {
				if _, err := co.Register(addr, 2); err != nil {
					t.Fatal(err)
				}
			}

			for _, resp := range []farm.Response{farm.Cycles, farm.Energy} {
				got, err := co.MeasureBatch(context.Background(), w, points, resp)
				if err != nil {
					t.Fatal(err)
				}
				for i := range points {
					if math.Float64bits(got[i]) != math.Float64bits(want[resp][i]) {
						t.Fatalf("response %v point %d: %v, in-process farm %v", resp, i, got[i], want[resp][i])
					}
				}
			}
			if !tr.used.Load() {
				t.Fatal("no lease stream crossed the transport")
			}
			if st := co.Stats(); st.GroupsRequeued != 1 || st.Failures != 0 {
				t.Fatalf("requeued=%d failures=%d, want one requeue and no failure", st.GroupsRequeued, st.Failures)
			}
		})
	}
}
