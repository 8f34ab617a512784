package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for an
// even count) and 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The tolerance keeps 99.9 % of 10 000 at 9 990 when the product rounds up.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// With fewer than 20 samples no tail qualifies and the median is returned.
func tailPercentile(vs []float64) (p, value float64) {
	p = 50
	for _, q := range tailLadder {
		if len(vs)-rank(q, len(vs)) >= 10 {
			p = q
		}
	}
	if p == 50 {
		return 50, median(vs)
	}
	return p, percentile(vs, p)
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which the acceptance rule
// for run-to-run spread is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
