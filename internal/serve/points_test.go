package serve

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
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

// FuzzPredictRequest holds decodePredict to json.Unmarshal into
// PredictRequest on whole /v1/predict bodies: the same accept/reject
// decision and the same values, whether a body takes the one-pass scan or
// falls back. The seed corpus under testdata/fuzz/FuzzPredictRequest names
// the edges of "canonical": every key, whitespace, an upper-case key, escaped
// keys and strings, non-ASCII and invalid UTF-8, unknown and repeated keys,
// null in each field and as the body, non-string values, syntax errors and
// trailing bytes.
func FuzzPredictRequest(f *testing.F) {
	body, err := json.Marshal(PredictRequest{Workload: "179.art", Model: "rbf", Points: testPoints(32, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want PredictRequest
		wantErr := json.Unmarshal(data, &want)
		var got PredictRequest
		gotErr := decodePredict(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json says %v, decodePredict says %v", data, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: encoding/json decodes %+v, decodePredict decodes %+v", data, want, got)
		}
	})
}

// TestAppendPredictResponseMatchesEncoder: the predict answer is appended by
// hand, so it is held to json.Encoder's bytes where the format has edges —
// exponent form on either side of 1e-6 and 1e21, negative zero, the extremes
// of float64, and a model name JSON escapes — and to its error for a value
// JSON cannot carry.
func TestAppendPredictResponseMatchesEncoder(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1848455.2612345, 1e-6, 9.99999e-7, -1e-7, 1e-300,
		1e20, 1e21, -1e21, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324,
	}
	for _, name := range []string{"rbf-rt-log", `<a"b\c&>`} {
		for _, cached := range []bool{false, true} {
			want := encodeBody(t, PredictResponse{Model: name, Cached: cached, Predictions: floats})
			got, err := appendPredictResponse([]byte("prefix"), name, cached, floats)
			if err != nil || string(got) != "prefix"+string(want) {
				t.Fatalf("model %q: appended %q (%v), encoding/json writes %q", name, got, err, want)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := json.NewEncoder(io.Discard).Encode(PredictResponse{Predictions: []float64{1, f}})
		_, err := appendPredictResponse(nil, "", false, []float64{1, f})
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%v: appended with error %v, encoding/json fails with %v", f, err, want)
		}
	}
}

// BenchmarkPredictPath times each step /v1/predict takes on one canonical
// 32-point body (about 2.2 KB), one sub-benchmark a step, so this layer's
// share of a request shows without the end-to-end benchmark: decode the body,
// validate the points, code them, predict them with the default model kind
// and append the answer. The model is serializableArtifacts', so the predict
// step's absolute time is not a fitted model's.
func BenchmarkPredictPath(b *testing.B) {
	body, err := json.Marshal(PredictRequest{Workload: "179.art", Points: testPoints(32, 1)})
	if err != nil {
		b.Fatal(err)
	}
	art := serializableArtifacts(workloads.MustGet("179.art", workloads.Train), 1)
	m, err := art.Model("")
	if err != nil {
		b.Fatal(err)
	}
	var req PredictRequest
	if err := decodePredict(body, &req); err != nil {
		b.Fatal(err)
	}
	coded := make([][]float64, len(req.Points))
	for i, p := range req.Points {
		coded[i] = art.Space.Code(p)
	}
	preds := model.PredictAll(m, coded)
	var out []byte
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r PredictRequest
			if err := decodePredict(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range req.Points {
				if err := art.Space.Validate(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("code", func(b *testing.B) {
		var dst []float64
		for i := 0; i < b.N; i++ {
			for _, p := range req.Points {
				dst = art.Space.CodeInto(p, dst)
			}
		}
	})
	b.Run("predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range coded {
				preds[j] = m.Predict(x)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out, err = appendPredictResponse(out[:0], m.Name(), true, preds); err != nil {
				b.Fatal(err)
			}
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
