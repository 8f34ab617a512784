package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzPointsDecode holds Points.UnmarshalJSON to its contract: for any
// input, the same accept/reject decision and the same values (nil-ness
// included) as json.Unmarshal into [][]int64 — called directly on the bytes,
// and as the field of a request the way the handlers decode it. The seed
// corpus under testdata/fuzz/FuzzPointsDecode names the cases that matter
// (null at each depth, empty rows, whitespace, -0, the int64 bounds and one
// past them, fractions, exponents, strings, nesting, malformed tails) and
// runs on every plain `go test`.
func FuzzPointsDecode(f *testing.F) {
	batch, err := json.Marshal(testPoints(32, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]int64
		wantErr := json.Unmarshal(data, &want)
		var got Points
		gotErr := got.UnmarshalJSON(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json says %v, Points says %v", data, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual([][]int64(got), want) {
			t.Fatalf("%q: encoding/json decodes %v, Points decodes %v", data, want, got)
		}

		body := append(append([]byte(`{"workload":"179.art","points":`), data...), '}')
		var ref struct {
			Workload string
			Points   [][]int64
		}
		refErr := json.Unmarshal(body, &ref)
		var req PredictRequest
		reqErr := json.Unmarshal(body, &req)
		if (refErr == nil) != (reqErr == nil) {
			t.Fatalf("%q: as a field encoding/json says %v, PredictRequest says %v", body, refErr, reqErr)
		}
		if refErr == nil && !reflect.DeepEqual([][]int64(req.Points), ref.Points) {
			t.Fatalf("%q: as a field encoding/json decodes %v, PredictRequest decodes %v", body, ref.Points, req.Points)
		}
	})
}

// TestPointsRowsDoNotOverlap: rows alias one backing slice, so each is cut
// with its capacity capped — appending to one must not write into the next.
func TestPointsRowsDoNotOverlap(t *testing.T) {
	var p Points
	if err := p.UnmarshalJSON([]byte(`[[1,2],[3,4]]`)); err != nil {
		t.Fatal(err)
	}
	p[0] = append(p[0], 9)
	if p[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", p)
	}
}
