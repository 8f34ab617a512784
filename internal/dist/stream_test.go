package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestLeaseStreamBreaches holds readLeaseStream to the protocol: every
// breach is a *StreamError, a clean stream yields one result per task.
func TestLeaseStreamBreaches(t *testing.T) {
	const two = `{"result":true,"i":1,"cycles":7}` + "\n" + `{"result":true,"i":0,"error":"boom"}` + "\n"
	for _, tc := range []struct {
		name, stream string
		breach       string // "" when the stream is clean
	}{
		{"clean", `{"hb":true}` + "\n" + two + `{"done":true,"local_hits":2}`, ""},
		{"missing result", `{"result":true,"i":1,"cycles":7}` + "\n" + `{"done":true}`, "incomplete group"},
		{"index out of range", two + `{"result":true,"i":2,"cycles":1}`, "out of range"},
		{"negative index", `{"result":true,"i":-1,"cycles":1}`, "out of range"},
		{"duplicate index", two + `{"result":true,"i":1,"cycles":7}`, "duplicate"},
		{"zero cycles", `{"result":true,"i":0}`, "measured 0 cycles"},
		{"negative cycles", `{"result":true,"i":0,"cycles":-1}`, "measured -1 cycles"},
		{"hits above tasks", two + `{"done":true,"local_hits":3}`, "3 local hits"},
		{"negative hits", two + `{"done":true,"local_hits":-2}`, "-2 local hits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, errs, hits, err := readLeaseStream(context.Background(), strings.NewReader(tc.stream), 2, time.Minute, "w")
			if tc.breach == "" {
				if err != nil {
					t.Fatal(err)
				}
				if res[1].Cycles != 7 || errs[1] != nil || errs[0] == nil || hits != 2 {
					t.Fatalf("results %v, errors %v, hits %d", res, errs, hits)
				}
				return
			}
			var se *StreamError
			if !errors.As(err, &se) || !strings.Contains(se.Msg, tc.breach) {
				t.Fatalf("error %v, want a StreamError saying %q", err, tc.breach)
			}
		})
	}
}

// FuzzLeaseStream feeds readLeaseStream arbitrary bytes as a group of up to
// seven tasks. Whatever the input, it must return — an error, or exactly one
// result per task — and never panic or hang: a reader that ends cannot leave
// it waiting for the lease to expire. On success the stream's result lines
// before its first done line are decoded again here, and must carry every
// index once with the values returned.
func FuzzLeaseStream(f *testing.F) {
	f.Add([]byte(`{"result":true,"i":0,"cycles":3}`+"\n"+`{"done":true,"local_hits":1}`+"\n"), uint8(1))
	f.Fuzz(func(t *testing.T, stream []byte, tasks uint8) {
		n := int(tasks % 8)
		done := make(chan struct{})
		var (
			res   []farmResult
			hits  int
			err   error
			nerrs int
		)
		go func() {
			defer close(done)
			r, errs, h, e := readLeaseStream(context.Background(), bytes.NewReader(stream), n, 10*time.Second, "fuzz")
			for i := range r {
				res = append(res, farmResult{r[i].Cycles, errs[i] != nil})
			}
			hits, err, nerrs = h, e, len(errs)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("readLeaseStream did not return on %q", stream)
		}
		if err != nil {
			return
		}
		if len(res) != n || nerrs != n || hits < 0 || hits > n {
			t.Fatalf("%q: %d results, %d errors, %d hits for %d tasks", stream, len(res), nerrs, hits, n)
		}
		seen := make([]bool, n)
		dec := json.NewDecoder(bytes.NewReader(stream))
		for {
			var l GroupLine
			if derr := dec.Decode(&l); derr != nil {
				t.Fatalf("%q: accepted, but its lines do not decode before a done line: %v", stream, derr)
			}
			if l.Heartbeat {
				continue
			}
			if l.Done {
				break
			}
			if !l.Result {
				continue
			}
			if seen[l.Index] {
				t.Fatalf("%q: index %d accepted twice", stream, l.Index)
			}
			seen[l.Index] = true
			got := res[l.Index]
			if got.failed != (l.Error != "") || !got.failed && got.cycles != l.Cycles {
				t.Fatalf("%q: index %d returned %+v from line %+v", stream, l.Index, got, l)
			}
			if !got.failed && !(got.cycles > 0) {
				t.Fatalf("%q: index %d measured %v cycles", stream, l.Index, got.cycles)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%q: index %d never streamed", stream, i)
			}
		}
	})
}

// farmResult is what FuzzLeaseStream compares of one returned result.
type farmResult struct {
	cycles float64
	failed bool
}
