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
// unread is computed: (A − B) − A + B need not round to 0.
func AllEffects(m Model, space *doe.Space, points [][]float64) []Effect {
	k := space.NumVars()
	reads := func(int) bool { return true }
	if r, ok := m.(varReader); ok {
		reads = r.ReadsVar
	}
	var out []Effect
	for v := 0; v < k; v++ {
		e := Effect{Vars: []int{v}, Names: []string{space.Vars[v].Name}}
		if reads(v) {
			e.Value = MainEffect(m, points, v)
		}
		out = append(out, e)
	}
	for v := 0; v < k; v++ {
		for w := v + 1; w < k; w++ {
			e := Effect{Vars: []int{v, w}, Names: []string{space.Vars[v].Name, space.Vars[w].Name}}
			if reads(w) {
				e.Value = InteractionEffect(m, points, v, w)
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

// TopEffects returns the n largest-magnitude effects.
func TopEffects(m Model, space *doe.Space, points [][]float64, n int) []Effect {
	all := AllEffects(m, space, points)
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
