package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Points is the "points" array of a predict or measure request: raw design
// points, one row each. It decodes with a scanner written for exactly this
// shape — an array of arrays of integers — into one flat backing slice the
// rows alias, where encoding/json would visit every element through
// reflection. The contract is parity with json.Unmarshal into [][]int64: the
// same inputs are accepted and yield the same values (null is a nil slice,
// a nil row or a zero element; "-0" is 0), and everything else — fractions,
// exponents, strings, deeper nesting, values beyond int64 — is rejected.
// FuzzPointsDecode holds the two against each other.
type Points [][]int64

// UnmarshalJSON implements json.Unmarshaler.
func (p *Points) UnmarshalJSON(data []byte) error {
	s := scanner{data: data}
	*p = s.points()
	if s.peek(); s.err == nil && s.pos < len(data) {
		s.fail("trailing data")
	}
	return s.err
}

// decodePredict fills req from a /v1/predict body. A canonical body is
// scanned once, points and all: an object whose keys are among "workload",
// "class", "scale", "model" and "points", each spelled exactly and given
// once, whose other values are strings of printable ASCII without escapes.
// Any other body goes, byte for byte, to json.Unmarshal, which stays the
// reference for key folding, unknown and repeated keys, null, escapes,
// syntax errors and trailing bytes. FuzzPredictRequest holds the result to
// json.Unmarshal's on whole bodies.
func decodePredict(data []byte, req *PredictRequest) error {
	if scanPredict(data, req) {
		return nil
	}
	*req = PredictRequest{}
	return json.Unmarshal(data, req)
}

// scanPredict is decodePredict's one pass. It reports false, with req partly
// filled, at the first byte that is not part of a canonical body. The
// strings it stores are copies, so req does not hold on to data.
func scanPredict(data []byte, req *PredictRequest) bool {
	s := scanner{data: data}
	var seen uint8
	for more := s.open('{', '}'); more; more = s.next('}') {
		key := s.str()
		if s.peek() != ':' {
			return false
		}
		s.pos++
		var bit uint8
		var field *string
		switch string(key) {
		case "workload":
			bit, field = 1, &req.Workload
		case "class":
			bit, field = 2, &req.Class
		case "scale":
			bit, field = 4, &req.Scale
		case "model":
			bit, field = 8, &req.Model
		case "points":
			bit = 16
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		if field != nil {
			*field = string(s.str())
		} else {
			req.Points = s.points()
		}
	}
	s.peek()
	return s.err == nil && s.pos == len(data)
}

// scanner walks the bytes of a predict body or of a points array. The first
// failure sticks: after it peek reports the end of input, so the loops above
// unwind without checking an error at each step.
type scanner struct {
	data []byte
	pos  int
	err  error
}

func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("serve: points: %s at offset %d", what, s.pos)
	}
}

// peek skips whitespace and returns the next byte without consuming it, or 0
// at the end of input or after a failure.
func (s *scanner) peek() byte {
	for ; s.err == nil && s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// open consumes the opening delimiter of an array or object and reports
// whether it has a first element; an empty one's closing delimiter is
// consumed too.
func (s *scanner) open(opening, closing byte) bool {
	if s.peek() != opening {
		s.fail(fmt.Sprintf("want '%c'", opening))
		return false
	}
	s.pos++
	if s.peek() == closing {
		s.pos++
		return false
	}
	return true
}

// next consumes the ',' or closing delimiter after an element and reports
// whether another element follows.
func (s *scanner) next(closing byte) bool {
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case closing:
		s.pos++
	default:
		s.fail(fmt.Sprintf("want ',' or '%c'", closing))
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns its
// bytes, which alias the input. Any other string fails, as not canonical.
func (s *scanner) str() []byte {
	if s.peek() != '"' {
		s.fail("want a string")
		return nil
	}
	start := s.pos + 1
	for s.pos = start; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1]
		case c < ' ' || c > '~' || c == '\\':
			s.fail("want printable ASCII without escapes")
			return nil
		}
	}
	s.fail("unterminated string")
	return nil
}

// points consumes a points value: null, or an array of rows that are each
// null or an array of integers and nulls. Past the opening bracket it is one
// loop over the bytes that meets whitespace, brackets, commas, nulls, signs
// and digits inline and calls nothing per element, so the state it carries
// stays in registers.
func (s *scanner) points() Points {
	if s.null() {
		return nil
	}
	if s.peek() != '[' {
		s.fail("want '['")
		return nil
	}
	data := s.data[s.pos:]
	// Every value but the first follows a comma, so the count bounds the
	// values and rows are cut from one backing slice that never moves.
	flat := make([]int64, bytes.Count(data, []byte{','})+1)
	rows := make(Points, 0, bytes.Count(data, []byte{'['}))
	n, row := 0, 0 // values in flat; where the open row starts
	inRow := false // between a row's brackets rather than the outer array's
	// last is the previous token: '[' an opening bracket, ',' a comma, or
	// 'v' a value (a row, an integer or a null).
	last := byte('[')
	i := 1
	for ; i < len(data); i++ {
		c := data[i]
		if c-'0' <= 9 && inRow && last != 'v' {
			// An integer, -?(0|[1-9][0-9]*), whose sign is the byte before
			// it. Nineteen digits cannot overflow the uint64 they gather in.
			start := i
			var mag uint64
			for ; i < len(data) && data[i]-'0' <= 9; i++ {
				mag = mag*10 + uint64(data[i]-'0')
			}
			neg := data[start-1] == '-'
			if digits := i - start; digits > 1 && c == '0' || digits > 19 || mag > 1<<63 || !neg && mag == 1<<63 {
				i = start
				break
			}
			if neg {
				mag = -mag
			}
			flat[n] = int64(mag)
			n++
			i-- // the loop's increment steps onto the byte after the digits
			last = 'v'
			continue
		}
		switch {
		case c == ',' && last == 'v':
			last = ','
			continue
		case c == ']' && last != ',':
			if !inRow {
				s.pos += i + 1
				return rows
			}
			rows = append(rows, flat[row:n:n])
			inRow, last = false, 'v'
			continue
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case c == '-' && inRow && last != 'v' && i+1 < len(data) && data[i+1]-'0' <= 9:
			continue // the digits read their sign back
		case last == 'v':
		case c == 'n' && len(data)-i >= 4 && string(data[i:i+4]) == "null":
			if inRow {
				flat[n] = 0
				n++
			} else {
				rows = append(rows, nil)
			}
			i += 3
			last = 'v'
			continue
		case c == '[' && !inRow:
			inRow, row, last = true, n, '['
			continue
		}
		break
	}
	// The loop stopped at the byte it could not take, or at the end.
	s.pos += i
	switch {
	case i == len(data):
		s.fail("unterminated array")
	case last == 'v':
		s.fail("want ',' or ']'")
	case data[i] == '0' && i+1 < len(data) && data[i+1]-'0' <= 9:
		s.fail("leading zero")
	case data[i]-'0' <= 9:
		s.fail("value out of int64 range")
	case inRow:
		s.fail("want an integer or null")
	default:
		s.fail("want '[' or null")
	}
	return nil
}

// appendPredictResponse appends to b the bytes json.Encoder.Encode writes for
// PredictResponse{Model: model, Cached: cached, Predictions: preds}, with
// preds non-nil: the trailing newline, the escaping of the model name and
// the float format included. A NaN or an infinity, which JSON cannot carry,
// is the error Encode returns for it.
func appendPredictResponse(b []byte, model string, cached bool, preds []float64) ([]byte, error) {
	name, _ := json.Marshal(model) // a string always encodes
	b = append(b, `{"model":`...)
	b = append(b, name...)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"predictions":[`...)
	for i, f := range preds {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, "]}\n"...), nil
}

// appendFloat appends a finite f in encoding/json's format: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a negative exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
