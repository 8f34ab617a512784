package model

import (
	"fmt"
	"sort"

	"repro/internal/doe"
)

// Effect is one interpreted model coefficient: the paper's Table 4 reports
// these for key parameters and interactions. For a main effect the value is
// half the predicted response change when the variable moves from its low to
// its high coded value; for a two-factor interaction it is the quarter
// difference-in-differences — both averaged over the training points, which
// makes the estimator exact for linear models and a faithful summary for
// MARS and RBF surfaces.
type Effect struct {
	Vars  []int // one entry for a main effect, two for an interaction
	Names []string
	Value float64
}

// Label renders "a" or "a * b".
func (e Effect) Label() string {
	if len(e.Names) == 1 {
		return e.Names[0]
	}
	return fmt.Sprintf("%s * %s", e.Names[0], e.Names[1])
}

// MainEffect estimates the coefficient of variable v from model m, averaging
// over the background points.
func MainEffect(m Model, points [][]float64, v int) float64 {
	if len(points) == 0 {
		return 0
	}
	x := make([]float64, len(points[0]))
	s := 0.0
	for _, p := range points {
		copy(x, p)
		x[v] = 1
		hi := m.Predict(x)
		x[v] = -1
		lo := m.Predict(x)
		s += (hi - lo) / 2
	}
	return s / float64(len(points))
}

// InteractionEffect estimates the two-factor interaction coefficient of
// variables v and w.
func InteractionEffect(m Model, points [][]float64, v, w int) float64 {
	if len(points) == 0 {
		return 0
	}
	x := make([]float64, len(points[0]))
	f := func(a, b float64) float64 {
		x[v], x[w] = a, b
		return m.Predict(x)
	}
	s := 0.0
	for _, p := range points {
		copy(x, p)
		s += (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / 4
	}
	return s / float64(len(points))
}

// varReader is implemented by a model that can tell which coordinates its
// predictions depend on: ReadsVar(v) false promises that Predict returns the
// same bits whatever x[v] holds.
type varReader interface {
	ReadsVar(v int) bool
}

// AllEffects computes every main effect and two-factor interaction of the
// model over the space, sorted by descending magnitude. For a varReader it
// skips the evaluations whose effect is +0 whatever the model predicts
// (finite predictions assumed): a main effect on a variable the model does
// not read, and a pair (v, w) whose w it does not read, where every
// difference-in-differences is (A − A) − B + B = +0. A pair whose v alone is
// unread is computed: (A − B) − A + B need not round to 0. A *MARSModel's
// effects come from its basis terms (marsTerms), with MainEffect's and
// InteractionEffect's bits.
func AllEffects(m Model, space *doe.Space, points [][]float64) []Effect {
	k := space.NumVars()
	reads := func(int) bool { return true }
	if r, ok := m.(varReader); ok {
		reads = r.ReadsVar
	}
	main := func(v int) float64 { return MainEffect(m, points, v) }
	interaction := func(v, w int) float64 { return InteractionEffect(m, points, v, w) }
	if mm, ok := m.(*MARSModel); ok && len(points) > 0 {
		t := newMARSTerms(mm, points)
		main, interaction = t.main, t.interaction
	}
	var out []Effect
	for v := 0; v < k; v++ {
		e := Effect{Vars: []int{v}, Names: []string{space.Vars[v].Name}}
		if reads(v) {
			e.Value = main(v)
		}
		out = append(out, e)
	}
	for v := 0; v < k; v++ {
		for w := v + 1; w < k; w++ {
			e := Effect{Vars: []int{v, w}, Names: []string{space.Vars[v].Name, space.Vars[w].Name}}
			if reads(w) {
				e.Value = interaction(v, w)
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := out[i].Value, out[j].Value
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		return ai > aj
	})
	return out
}

// marsTerms evaluates a MARS model's effects from each background point's
// terms Coef[i]·basis_i(p), formed once. A corner moves one or two variables
// of p, so it re-evaluates only the bases that read one and sums all terms
// in basis order, as Predict does: the same additions of the same values.
type marsTerms struct {
	m      *MARSModel
	points [][]float64
	terms  [][]float64 // per point, per basis
	x      []float64   // the corner being evaluated
	moved  []bool      // per basis: reads a moved variable
}

func newMARSTerms(m *MARSModel, points [][]float64) *marsTerms {
	t := &marsTerms{m: m, points: points, terms: make([][]float64, len(points)),
		x: make([]float64, len(points[0])), moved: make([]bool, len(m.Bases))}
	flat := make([]float64, len(points)*len(m.Bases))
	for pi, p := range points {
		row := flat[pi*len(m.Bases) : (pi+1)*len(m.Bases)]
		for i, b := range m.Bases {
			row[i] = m.Coef[i] * b.eval(p)
		}
		t.terms[pi] = row
	}
	return t
}

// move marks the bases that read v or w.
func (t *marsTerms) move(v, w int) {
	for i, b := range t.m.Bases {
		t.moved[i] = b.usesVar(v) || b.usesVar(w)
	}
}

// predict returns Predict(t.x) for the background point whose terms are
// given, t.x differing from that point only in moved variables.
func (t *marsTerms) predict(terms []float64) float64 {
	s := 0.0
	for i, b := range t.m.Bases {
		if t.moved[i] {
			s += t.m.Coef[i] * b.eval(t.x)
		} else {
			s += terms[i]
		}
	}
	return s
}

// main is MainEffect(t.m, t.points, v).
func (t *marsTerms) main(v int) float64 {
	t.move(v, v)
	s := 0.0
	for pi, p := range t.points {
		copy(t.x, p)
		t.x[v] = 1
		hi := t.predict(t.terms[pi])
		t.x[v] = -1
		lo := t.predict(t.terms[pi])
		s += (hi - lo) / 2
	}
	return s / float64(len(t.points))
}

// interaction is InteractionEffect(t.m, t.points, v, w).
func (t *marsTerms) interaction(v, w int) float64 {
	t.move(v, w)
	s := 0.0
	for pi, p := range t.points {
		copy(t.x, p)
		f := func(a, b float64) float64 {
			t.x[v], t.x[w] = a, b
			return t.predict(t.terms[pi])
		}
		s += (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / 4
	}
	return s / float64(len(t.points))
}

// TopEffects returns the n largest-magnitude effects.
func TopEffects(m Model, space *doe.Space, points [][]float64, n int) []Effect {
	all := AllEffects(m, space, points)
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
