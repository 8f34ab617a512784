package doe

import (
	"math"
	"math/rand"
	"testing"
)

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Regression test: a candidate pool smaller than the design size used to
// panic in the initial selection (rng.Perm(len(cands))[:n]); it must now be
// clamped up to n.
func TestDOptimalCandidatesClampedToDesignSize(t *testing.T) {
	s := MicroarchSpace()
	des := DOptimal(s, 12, rand.New(rand.NewSource(1)),
		DOptions{Candidates: 5, Expansion: ExpandLinear})
	if len(des.Points) != 12 {
		t.Fatalf("design size %d, want 12", len(des.Points))
	}
	for _, p := range des.Points {
		if err := s.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
	// Augmentation clamps against the added block size, not the total.
	aug := AugmentDOptimal(s, des.Points, 8, rand.New(rand.NewSource(2)),
		DOptions{Candidates: 3, Expansion: ExpandLinear})
	if len(aug.Points) != 20 {
		t.Fatalf("augmented size %d, want 20", len(aug.Points))
	}
}

// The exchange scan is parallelized, but per-candidate deltas land in their
// own slots and the winner is picked by a serial in-order scan — so the
// selected design must be bit-for-bit identical at any worker count.
func TestDOptimalParallelMatchesSerial(t *testing.T) {
	s := JointSpace()
	opts := func(w int) DOptions {
		return DOptions{Expansion: ExpandLinear, MaxSweeps: 3, Workers: w}
	}
	serial := DOptimal(s, 24, rand.New(rand.NewSource(17)), opts(1))
	for _, w := range []int{2, 4, 8} {
		parallel := DOptimal(s, 24, rand.New(rand.NewSource(17)), opts(w))
		if !samePoints(serial.Points, parallel.Points) {
			t.Fatalf("workers=%d selected a different design than serial", w)
		}
	}
	base := serial.Points[:10]
	augSerial := AugmentDOptimal(s, base, 10, rand.New(rand.NewSource(19)), opts(1))
	augPar := AugmentDOptimal(s, base, 10, rand.New(rand.NewSource(19)), opts(4))
	if !samePoints(augSerial.Points, augPar.Points) {
		t.Fatal("parallel augmentation selected a different design than serial")
	}
}

// More exchange sweeps may only improve (or preserve) the D-criterion.
// MaxSweeps -1 is the explicit-zero sentinel: the raw random selection.
func TestDOptimalLogDetNonDecreasingAcrossSweeps(t *testing.T) {
	s := MicroarchSpace()
	prev := math.Inf(-1)
	for _, sweeps := range []int{-1, 1, 2, 4} {
		des := DOptimal(s, 20, rand.New(rand.NewSource(23)),
			DOptions{Expansion: ExpandLinear, MaxSweeps: sweeps})
		ld := des.logDet()
		if ld < prev-1e-6 {
			t.Fatalf("logdet decreased at MaxSweeps=%d: %.6f -> %.6f", sweeps, prev, ld)
		}
		t.Logf("MaxSweeps=%d logdet=%.4f", sweeps, ld)
		prev = ld
	}
}

func TestAugmentDOptimalLogDetNonDecreasingAcrossSweeps(t *testing.T) {
	s := MicroarchSpace()
	base := DOptimal(s, 12, rand.New(rand.NewSource(29)), DOptions{Expansion: ExpandLinear})
	prev := math.Inf(-1)
	for _, sweeps := range []int{-1, 1, 2, 4} {
		aug := AugmentDOptimal(s, base.Points, 8, rand.New(rand.NewSource(31)),
			DOptions{Expansion: ExpandLinear, MaxSweeps: sweeps})
		// Fixed points must be preserved verbatim, in order, at every
		// sweep count.
		for i, p := range base.Points {
			for j := range p {
				if aug.Points[i][j] != p[j] {
					t.Fatalf("MaxSweeps=%d: fixed point %d modified", sweeps, i)
				}
			}
		}
		ld := aug.logDet()
		if ld < prev-1e-6 {
			t.Fatalf("logdet decreased at MaxSweeps=%d: %.6f -> %.6f", sweeps, prev, ld)
		}
		prev = ld
	}
}

// The incremental loop (cached variances, in-place Sherman–Morrison) must
// match the reference full-recomputation loop in design quality. The two can
// differ in final ulps of the dispersion matrix, so selections may diverge;
// the D-criterion they reach must not.
func TestDOptimalMatchesReferenceQuality(t *testing.T) {
	s := JointSpace()
	opt := DOptions{Expansion: ExpandLinear, MaxSweeps: 4}
	fast := DOptimal(s, 30, rand.New(rand.NewSource(37)), opt)
	ref := DOptimalRef(s, 30, rand.New(rand.NewSource(37)), opt)
	lf, lr := fast.logDet(), ref.logDet()
	if math.Abs(lf-lr) > 0.01*math.Abs(lr)+1e-6 {
		t.Fatalf("incremental logdet %.4f vs reference %.4f", lf, lr)
	}
	t.Logf("logdet: incremental=%.4f reference=%.4f", lf, lr)
}
