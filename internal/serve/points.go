package serve

import (
	"bytes"
	"fmt"
	"math"
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
	s := pointScanner{data: data}
	if s.null() {
		*p = nil
	} else {
		// Every value but the first follows a comma, so the count bounds the
		// backing slice and rows are cut from it without it ever moving.
		flat := make([]int64, 0, bytes.Count(data, []byte{','})+1)
		rows := [][]int64{}
		for more := s.open(); more; more = s.next() {
			if s.null() {
				rows = append(rows, nil)
				continue
			}
			start := len(flat)
			for more := s.open(); more; more = s.next() {
				if s.null() {
					flat = append(flat, 0)
				} else {
					flat = append(flat, s.integer())
				}
			}
			rows = append(rows, flat[start:len(flat):len(flat)])
		}
		*p = rows
	}
	if s.peek(); s.err == nil && s.pos < len(data) {
		s.fail("trailing data")
	}
	return s.err
}

// pointScanner walks the bytes of a points array. The first failure sticks:
// after it peek reports the end of input, so the loops above unwind without
// checking an error at each step.
type pointScanner struct {
	data []byte
	pos  int
	err  error
}

func (s *pointScanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("serve: points: %s at offset %d", what, s.pos)
	}
}

// peek skips whitespace and returns the next byte without consuming it, or 0
// at the end of input or after a failure.
func (s *pointScanner) peek() byte {
	for ; s.err == nil && s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// null consumes a null literal if one is next.
func (s *pointScanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// open consumes '[' and reports whether the array has a first element; an
// empty array's ']' is consumed too.
func (s *pointScanner) open() bool {
	if s.peek() != '[' {
		s.fail("want an array")
		return false
	}
	s.pos++
	if s.peek() == ']' {
		s.pos++
		return false
	}
	return true
}

// next consumes the ',' or ']' after an element and reports whether another
// element follows.
func (s *pointScanner) next() bool {
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case ']':
		s.pos++
	default:
		s.fail("want ',' or ']'")
	}
	return false
}

// integer consumes a JSON number that is an int64: -?(0|[1-9][0-9]*). A
// fraction or exponent after it fails in next, as any other stray byte does.
func (s *pointScanner) integer() int64 {
	neg := s.peek() == '-'
	if neg {
		s.pos++
	}
	first := s.pos
	var mag uint64
	for ; s.pos < len(s.data); s.pos++ {
		d := uint64(s.data[s.pos]) - '0'
		if d > 9 {
			break
		}
		if mag > (1<<63-d)/10 {
			s.fail("value out of int64 range")
			return 0
		}
		mag = mag*10 + d
	}
	switch {
	case s.pos == first:
		s.fail("want an integer")
	case s.data[first] == '0' && s.pos > first+1:
		s.fail("leading zero")
	case !neg && mag > math.MaxInt64:
		s.fail("value out of int64 range")
	}
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}
