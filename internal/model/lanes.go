package model

import (
	"math"

	"repro/internal/linalg"
)

// laneGroup is one scoring unit of the forward pass: up to four candidates,
// by index, in enumeration order, whose stored columns are all orthogonalised
// against q[:nq]. A full group holds four cached candidates of one parent and
// one shape, and one loop over the rows scores all four: each row of q is
// read once for the four of them, and each lane keeps its own accumulators
// and performs its own candidate's operations in score's order, so every
// gain keeps its bits. A group of fewer scores its members one at a time
// with score.
type laneGroup struct {
	n, nq int
	i     [4]int32
}

// The shapes of a cached candidate: both hinge columns stored, or only the
// first (z2 set), or only the second (z1 set).
const (
	shapePair = iota
	shapeFirst
	shapeSecond
)

func (c *marsCand) shape() int {
	switch {
	case c.z2:
		return shapeFirst
	case c.z1:
		return shapeSecond
	}
	return shapePair
}

// appendLaneGroups appends the scoring units of one parent's cached
// candidates, idx, in enumeration order: per shape, groups of four as they
// come and one short group of the rest, at most three.
func appendLaneGroups(units []laneGroup, cands []marsCand, idx []int32) []laneGroup {
	var open [3]laneGroup
	for _, i := range idx {
		g := &open[cands[i].shape()]
		g.i[g.n] = i
		if g.n++; g.n == 4 {
			units = append(units, *g)
			g.n = 0
		}
	}
	for _, g := range open {
		if g.n > 0 {
			units = append(units, g)
		}
	}
	return units
}

// score writes the gain of each member of g to gains and moves g.nq up to
// len(s.q). w is 4·n values of scratch the caller owns.
func (g *laneGroup) score(cands []marsCand, s *marsState, w, gains []float64) {
	nq := g.nq
	g.nq = len(s.q)
	if g.n < 4 {
		for _, i := range g.i[:g.n] {
			gains[i] = cands[i].score(s, nq, w)
		}
		return
	}
	c := [4]*marsCand{&cands[g.i[0]], &cands[g.i[1]], &cands[g.i[2]], &cands[g.i[3]]}
	n, qs := len(s.r), s.q[nq:]
	a := [4][]float64{c[0].o[:n], c[1].o[:n], c[2].o[:n], c[3].o[:n]}
	var gs [4]float64
	switch c[0].shape() {
	case shapeFirst:
		gs = firstTail4(a, deflate4(a, qs), s.r)
	case shapeSecond:
		deflate4(a, qs)
		for k := range gs {
			gs[k] = pairTail(nil, a[k], 0, s.r, nil)
		}
	default:
		b := [4][]float64{c[0].o[n:], c[1].o[n:], c[2].o[n:], c[3].o[n:]}
		n1 := deflate4x2(a, b, qs)
		if n1[0] > 1e-10 && n1[1] > 1e-10 && n1[2] > 1e-10 && n1[3] > 1e-10 {
			gs = pairTail4(a, b, n1, s.r, w)
		} else {
			for k := range gs {
				gs[k] = pairTail(a[k], b[k], n1[k], s.r, w)
			}
		}
	}
	for k, i := range g.i {
		gains[i] = gs[k]
	}
}

// deflate4 is deflate(a[k], nil, qs) for four columns of one length at once:
// it projects each off every direction of qs in turn and returns each one's
// Euclidean norm. A direction's update and the next direction's dot share one
// loop over the rows; the norm is summed in the last update when that is the
// last direction and otherwise by linalg.Norm2 — either way the same sum.
func deflate4(a [4][]float64, qs [][]float64) (nrm [4]float64) {
	n := len(a[0])
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	var fresh [4]bool
	var p0, p1, p2, p3 float64
	if len(qs) > 0 {
		p0, p1, p2, p3 = linalg.Dot4(qs[0][:n], a0, a1, a2, a3)
	}
	for j, qi := range qs {
		qi = qi[:n]
		last := j == len(qs)-1
		if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 {
			for k, p := range [4]float64{p0, p1, p2, p3} {
				fresh[k] = false
				if p != 0 {
					nrm[k], fresh[k] = axpyNorm(a[k], qi, p, last), last
				}
			}
			if !last {
				p0, p1, p2, p3 = linalg.Dot4(qs[j+1][:n], a0, a1, a2, a3)
			}
			continue
		}
		if !last {
			qn := qs[j+1][:n]
			var d0, d1, d2, d3 float64
			for i, x := range qi {
				z := qn[i]
				y0 := a0[i] - p0*x
				y1 := a1[i] - p1*x
				y2 := a2[i] - p2*x
				y3 := a3[i] - p3*x
				a0[i], a1[i], a2[i], a3[i] = y0, y1, y2, y3
				d0 += z * y0
				d1 += z * y1
				d2 += z * y2
				d3 += z * y3
			}
			p0, p1, p2, p3 = d0, d1, d2, d3
			continue
		}
		var s0, s1, s2, s3 float64
		for i, x := range qi {
			y0 := a0[i] - p0*x
			y1 := a1[i] - p1*x
			y2 := a2[i] - p2*x
			y3 := a3[i] - p3*x
			a0[i], a1[i], a2[i], a3[i] = y0, y1, y2, y3
			s0 += y0 * y0
			s1 += y1 * y1
			s2 += y2 * y2
			s3 += y3 * y3
		}
		nrm = [4]float64{s0, s1, s2, s3}
		fresh = [4]bool{true, true, true, true}
	}
	for k := range nrm {
		if fresh[k] {
			nrm[k] = math.Sqrt(nrm[k])
		} else {
			nrm[k] = linalg.Norm2(a[k])
		}
	}
	return nrm
}

// deflate4x2 is deflate(a[k], b[k], qs) for four pairs of columns of one
// length at once, returning the norms of the a[k] as deflate4 does.
func deflate4x2(a, b [4][]float64, qs [][]float64) (nrm [4]float64) {
	n := len(a[0])
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	var fresh [4]bool
	var pa0, pa1, pa2, pa3, pb0, pb1, pb2, pb3 float64
	if len(qs) > 0 {
		pa0, pa1, pa2, pa3 = linalg.Dot4(qs[0][:n], a0, a1, a2, a3)
		pb0, pb1, pb2, pb3 = linalg.Dot4(qs[0][:n], b0, b1, b2, b3)
	}
	for j, qi := range qs {
		qi = qi[:n]
		last := j == len(qs)-1
		if pa0 == 0 || pa1 == 0 || pa2 == 0 || pa3 == 0 || pb0 == 0 || pb1 == 0 || pb2 == 0 || pb3 == 0 {
			pa := [4]float64{pa0, pa1, pa2, pa3}
			pb := [4]float64{pb0, pb1, pb2, pb3}
			for k := range pa {
				fresh[k] = false
				if pa[k] != 0 {
					nrm[k], fresh[k] = axpyNorm(a[k], qi, pa[k], last), last
				}
				if pb[k] != 0 {
					axpyNorm(b[k], qi, pb[k], false)
				}
			}
			if !last {
				pa0, pa1, pa2, pa3 = linalg.Dot4(qs[j+1][:n], a0, a1, a2, a3)
				pb0, pb1, pb2, pb3 = linalg.Dot4(qs[j+1][:n], b0, b1, b2, b3)
			}
			continue
		}
		if !last {
			qn := qs[j+1][:n]
			var da0, da1, da2, da3, db0, db1, db2, db3 float64
			for i, x := range qi {
				z := qn[i]
				y := a0[i] - pa0*x
				a0[i] = y
				da0 += z * y
				y = b0[i] - pb0*x
				b0[i] = y
				db0 += z * y
				y = a1[i] - pa1*x
				a1[i] = y
				da1 += z * y
				y = b1[i] - pb1*x
				b1[i] = y
				db1 += z * y
				y = a2[i] - pa2*x
				a2[i] = y
				da2 += z * y
				y = b2[i] - pb2*x
				b2[i] = y
				db2 += z * y
				y = a3[i] - pa3*x
				a3[i] = y
				da3 += z * y
				y = b3[i] - pb3*x
				b3[i] = y
				db3 += z * y
			}
			pa0, pa1, pa2, pa3 = da0, da1, da2, da3
			pb0, pb1, pb2, pb3 = db0, db1, db2, db3
			continue
		}
		var s0, s1, s2, s3 float64
		for i, x := range qi {
			y0 := a0[i] - pa0*x
			y1 := a1[i] - pa1*x
			y2 := a2[i] - pa2*x
			y3 := a3[i] - pa3*x
			a0[i], a1[i], a2[i], a3[i] = y0, y1, y2, y3
			s0 += y0 * y0
			s1 += y1 * y1
			s2 += y2 * y2
			s3 += y3 * y3
			b0[i] -= pb0 * x
			b1[i] -= pb1 * x
			b2[i] -= pb2 * x
			b3[i] -= pb3 * x
		}
		nrm = [4]float64{s0, s1, s2, s3}
		fresh = [4]bool{true, true, true, true}
	}
	for k := range nrm {
		if fresh[k] {
			nrm[k] = math.Sqrt(nrm[k])
		} else {
			nrm[k] = linalg.Norm2(a[k])
		}
	}
	return nrm
}

// axpyNorm subtracts p·q from a in place and, when norm is set, returns the
// sum of squares of the result.
func axpyNorm(a, q []float64, p float64, norm bool) float64 {
	var ss float64
	for i, x := range q {
		y := a[i] - p*x
		a[i] = y
		if norm {
			ss += y * y
		}
	}
	return ss
}

// firstTail4 is pairTail(a[k], nil, n1[k], r, nil) for four lanes.
func firstTail4(a [4][]float64, n1 [4]float64, r []float64) (gain [4]float64) {
	n := len(r)
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	d0, d1, d2, d3 := n1[0], n1[1], n1[2], n1[3]
	var r0, r1, r2, r3 float64
	for i, ri := range r {
		r0 += a0[i] / d0 * ri
		r1 += a1[i] / d1 * ri
		r2 += a2[i] / d2 * ri
		r3 += a3[i] / d3 * ri
	}
	for k, pr := range [4]float64{r0, r1, r2, r3} {
		if n1[k] > 1e-10 {
			gain[k] += pr * pr
		}
	}
	return gain
}

// pairTail4 is pairTail on four deflated pairs whose n1 are all above the
// threshold, with s1 for lane k in w[k·n:(k+1)·n].
func pairTail4(a, b [4][]float64, n1 [4]float64, r, w []float64) (gain [4]float64) {
	n := len(r)
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	s0, s1, s2, s3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
	d0, d1, d2, d3 := n1[0], n1[1], n1[2], n1[3]
	var r0, r1, r2, r3, p0, p1, p2, p3 float64
	for i, ri := range r {
		x0 := a0[i] / d0
		x1 := a1[i] / d1
		x2 := a2[i] / d2
		x3 := a3[i] / d3
		s0[i], s1[i], s2[i], s3[i] = x0, x1, x2, x3
		r0 += x0 * ri
		p0 += x0 * b0[i]
		r1 += x1 * ri
		p1 += x1 * b1[i]
		r2 += x2 * ri
		p2 += x2 * b2[i]
		r3 += x3 * ri
		p3 += x3 * b3[i]
	}
	gain[0] += r0 * r0
	gain[1] += r1 * r1
	gain[2] += r2 * r2
	gain[3] += r3 * r3
	var q0, q1, q2, q3 float64
	r0, r1, r2, r3 = 0, 0, 0, 0
	for i, ri := range r {
		x0 := b0[i] - p0*s0[i]
		x1 := b1[i] - p1*s1[i]
		x2 := b2[i] - p2*s2[i]
		x3 := b3[i] - p3*s3[i]
		q0 += x0 * x0
		r0 += x0 * ri
		q1 += x1 * x1
		r1 += x1 * ri
		q2 += x2 * x2
		r2 += x2 * ri
		q3 += x3 * x3
		r3 += x3 * ri
	}
	nn, pr := [4]float64{q0, q1, q2, q3}, [4]float64{r0, r1, r2, r3}
	for k := range gain {
		if n2 := math.Sqrt(nn[k]); n2 > 1e-10 {
			p := pr[k] / n2
			gain[k] += p * p
		}
	}
	return gain
}
