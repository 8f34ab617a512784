package linalg

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (0 for empty
// input).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// SSE returns the sum of squared differences Σ(pred−actual)².
func SSE(pred, actual []float64) float64 {
	s := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return s
}

// MeanAbsPctError returns the mean of |pred-actual|/|actual| in percent.
// Entries with actual == 0 are skipped.
func MeanAbsPctError(pred, actual []float64) float64 {
	s, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dot4 returns a·b0, a·b1, a·b2 and a·b3 in one pass over a. Each sum has
// its own accumulator and runs in index order from +0, so each has Dot's
// bits. The b's must be at least len(a) long.
func Dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for j, aj := range a {
		s0 += aj * b0[j]
		s1 += aj * b1[j]
		s2 += aj * b2[j]
		s3 += aj * b3[j]
	}
	return
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist2 returns the squared Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
