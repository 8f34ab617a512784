package doe

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// logDet returns log det(XᵀX) of the design's expanded matrix X.
func (d *Design) logDet() float64 {
	rows := make([][]float64, len(d.Points))
	for i, p := range d.Points {
		rows[i] = ExpandCoded(d.Space.Code(p), d.Expansion)
	}
	return linalg.LogDetGram(linalg.FromRows(rows))
}

// dot4 is the exchange's four-row kernel.
var dot4 = linalg.Dot4

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

// designFingerprints pins the designs the exchange selects: for each
// expansion and size, an FNV-1a hash of the points of the designs at seeds
// 1–20, and one of their AugmentDOptimal extensions by a quarter of the
// size; des2 and aug2 are the same hashes after seed 2. The values were
// generated by the parallel exchange with per-candidate linalg.Dot and quad
// calls that the four-row kernels replaced.
var designFingerprints = []struct {
	e                        Expansion
	n                        int
	des2, aug2, des20, aug20 uint64
}{
	{ExpandLinear, 12, 0xabc1780f1378e802, 0x206fc89746f86092, 0xd8557842a01372be, 0xb0eb9b4ee4ead28b},
	{ExpandLinear, 28, 0xbed44aab24390827, 0xd04681211f53d614, 0xbce54332ca6cfbb4, 0x550f27b52fedf67b},
	{ExpandLinear, 40, 0x8b8f6b121421bf2c, 0x94ff896921844b3f, 0x8105099e333ba545, 0x2ae3d0971aa3e5c5},
	{ExpandLinear, 120, 0xaae20a1452dbb898, 0x87cd57b2cc65563d, 0xb6ffa20406da3b22, 0xf038e0822e5e197e},
	{ExpandInteractions, 12, 0x8f21ca58124de85e, 0x30b769b24d80227, 0x6f1165c3a0d5fdf4, 0xb38cacc81304a868},
	{ExpandInteractions, 28, 0xa8cac0ff55d2c992, 0xcbfc2ae480baa315, 0x7dcb2adf58648dc1, 0x76ebfc0df4735ff7},
	{ExpandInteractions, 40, 0x6b5108af5c7f5d2, 0xb5de23b0bbb71a7d, 0x5e91ff0cabf9b5fb, 0x8d4ce3d6accbc14b},
}

// hashPoints folds every value of pts into h, little-endian.
func hashPoints(h hash.Hash64, pts []Point) {
	var b [8]byte
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
}

// The four-row kernels change how the exchange computes each value, not the
// value: the designs and augmentations must be the pinned ones exactly. The
// interaction expansion (326 terms) runs one sweep over a smaller pool,
// because each sweep inverts a 326 × 326 matrix; under -race, whose
// instrumentation slows that about twentyfold, only seeds 1 and 2 run.
func TestDOptimalFingerprints(t *testing.T) {
	s := JointSpace()
	seeds := int64(20)
	if raceEnabled {
		seeds = 2
	}
	for _, c := range designFingerprints {
		dh, ah := fnv.New64a(), fnv.New64a()
		check := func(what string, h hash.Hash64, want uint64, seed int64) {
			if got := h.Sum64(); got != want {
				t.Errorf("expansion %d, n = %d: %s at seeds 1–%d hash to %#x, want %#x", c.e, c.n, what, seed, got, want)
			}
		}
		for seed := int64(1); seed <= seeds; seed++ {
			opt := DOptions{Expansion: c.e, MaxSweeps: 4}
			if c.e == ExpandInteractions {
				opt = DOptions{Expansion: c.e, MaxSweeps: 1, Candidates: 2 * c.n}
			}
			des := DOptimal(s, c.n, rand.New(rand.NewSource(seed)), opt)
			aug := AugmentDOptimal(s, des.Points, c.n/4, rand.New(rand.NewSource(seed+100)), opt)
			hashPoints(dh, des.Points)
			hashPoints(ah, aug.Points)
			switch seed {
			case 2:
				check("designs", dh, c.des2, seed)
				check("augmentations", ah, c.aug2, seed)
			case 20:
				check("designs", dh, c.des20, seed)
				check("augmentations", ah, c.aug20, seed)
			}
		}
	}
}

// kernelRow draws a row of length n mixing ±0, exact zeros and values of
// spread magnitude, so that summation order shows in the low bits.
func kernelRow(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		switch rng.Intn(5) {
		case 0:
			r[i] = 0
		case 1:
			r[i] = math.Copysign(0, -1)
		default:
			r[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return r
}

// dot4, dotRows and quad4 must return linalg.Dot's and quad's bits for each
// row: each value keeps its own accumulator and index order.
func TestExchangeKernelsMatchDotAndQuad(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 26, 326} {
		for trial := 0; trial < 8; trial++ {
			a := kernelRow(rng, n)
			rows := make([][]float64, 4+trial%4) // dotRows' tail, too
			for i := range rows {
				rows[i] = kernelRow(rng, n)
			}
			if trial == 0 {
				rows[1] = make([]float64, n) // an all-zero row
			}
			s0, s1, s2, s3 := dot4(a, rows[0], rows[1], rows[2], rows[3])
			for i, s := range []float64{s0, s1, s2, s3} {
				if want := linalg.Dot(rows[i], a); !same(s, want) {
					t.Fatalf("n = %d: dot4 row %d = %v, Dot %v", n, i, s, want)
				}
			}
			out := make([]float64, len(rows))
			dotRows(rows, a, out)
			for i, s := range out {
				if want := linalg.Dot(rows[i], a); !same(s, want) {
					t.Fatalf("n = %d: dotRows row %d of %d = %v, Dot %v", n, i, len(rows), s, want)
				}
			}
			d := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				copy(d.Row(i), kernelRow(rng, n))
			}
			q0, q1, q2, q3 := quad4(d, rows[0], rows[1], rows[2], rows[3], n)
			for i, q := range []float64{q0, q1, q2, q3} {
				if want := quad(d, rows[i], rows[i], n); !same(q, want) {
					t.Fatalf("n = %d: quad4 row %d = %v, quad %v", n, i, q, want)
				}
			}
		}
	}
}
