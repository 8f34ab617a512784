package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The helpers below are the oracles the factorizations are checked against.

// mul returns the matrix product a·b.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// maxAbsDiff returns the largest element-wise |a − b|.
func maxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a.Data {
		d = math.Max(d, math.Abs(a.Data[i]-b.Data[i]))
	}
	return d
}

// det returns the determinant of square a from its LU factors, or 0 if a is
// singular.
func det(a *Matrix) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return 0
	}
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
	tp := m.T()
	if tp.At(0, 1) != 3 || tp.At(1, 0) != 2 {
		t.Fatalf("transpose wrong: %v", tp)
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := mul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if maxAbsDiff(c, want) > 1e-12 {
		t.Fatalf("Mul wrong:\n%v", c)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if !almostEq(v[i], want[i], 1e-12) {
			t.Fatalf("MulVec = %v, want %v", v, want)
		}
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(7, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	g := a.Gram()
	explicit := mul(a.T(), a)
	if maxAbsDiff(g, explicit) > 1e-10 {
		t.Fatal("Gram != AᵀA")
	}
}

func TestLUSolve(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	x, err := Solve(a, []float64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 2, 1e-10) {
		t.Fatalf("Solve = %v, want [1 2]", x)
	}
}

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}})
	if !almostEq(det(a), 24, 1e-10) {
		t.Fatalf("Det = %v, want 24", det(a))
	}
	// Permuted rows flip the sign.
	b := FromRows([][]float64{{0, 3, 0}, {2, 0, 0}, {0, 0, 4}})
	if !almostEq(det(b), -24, 1e-10) {
		t.Fatalf("Det = %v, want -24", det(b))
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected singular error")
	}
	if det(a) != 0 {
		t.Fatal("Det of singular should be 0")
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		inv, err := Inverse(a)
		if err != nil {
			continue // randomly singular is vanishingly unlikely but allowed
		}
		prod := mul(a, inv)
		if maxAbsDiff(prod, identity(n)) > 1e-8 {
			t.Fatalf("A·A⁻¹ != I for n=%d", n)
		}
	}
}

func TestLogDetGram(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	// AᵀA = [[2,1],[1,2]], det = 3.
	got := LogDetGram(a)
	if !almostEq(got, math.Log(3), 1e-10) {
		t.Fatalf("LogDetGram = %v, want ln 3", got)
	}
	// Rank-deficient design -> -Inf.
	b := FromRows([][]float64{{1, 1}, {2, 2}})
	if !math.IsInf(LogDetGram(b), -1) {
		t.Fatal("LogDetGram of singular gram should be -Inf")
	}
}

func TestQRSolveExact(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 2}, {1, 3}})
	// y = 2 + 3x exactly.
	b := []float64{5, 8, 11}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-9) || !almostEq(x[1], 3, 1e-9) {
		t.Fatalf("LeastSquares = %v, want [2 3]", x)
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(20, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Residual must be orthogonal to column space: Aᵀ(b − Ax) ≈ 0.
	pred := a.MulVec(x)
	resid := make([]float64, len(b))
	for i := range b {
		resid[i] = b[i] - pred[i]
	}
	g := a.T().MulVec(resid)
	for _, v := range g {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: %v", g)
		}
	}
}

func TestRidgeFallbackRankDeficient(t *testing.T) {
	// Duplicate column makes plain QR rank-deficient.
	a := FromRows([][]float64{{1, 1, 2}, {1, 1, 3}, {1, 1, 4}, {1, 1, 5}})
	b := []float64{1, 2, 3, 4}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pred := a.MulVec(x)
	for i := range b {
		if !almostEq(pred[i], b[i], 1e-3) {
			t.Fatalf("ridge fallback poor fit: pred=%v want %v", pred, b)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatal("Mean")
	}
	if !almostEq(StdDev(xs), math.Sqrt(1.25), 1e-12) {
		t.Fatal("StdDev")
	}
	if SSE([]float64{1, 2}, []float64{0, 0}) != 5 {
		t.Fatal("SSE")
	}
	if !almostEq(MeanAbsPctError([]float64{110}, []float64{100}), 10, 1e-12) {
		t.Fatal("MeanAbsPctError")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

// Property: for random well-conditioned systems, Solve(A, A·x) recovers x.
func TestPropertyLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := identity(n)
		// Diagonally dominant random matrix: always nonsingular.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				if i == j {
					v += float64(n) + 2
				}
				a.Set(i, j, a.At(i, j)+v)
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinant is multiplicative for small random matrices.
func TestPropertyDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a, b := NewMatrix(n, n), NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		da, db, dab := det(a), det(b), det(mul(a, b))
		scale := math.Max(1, math.Abs(da*db))
		return math.Abs(dab-da*db)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQRMatchesRidgeOnFullRank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 12+rng.Intn(10), 2+rng.Intn(4)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err1 := LeastSquares(a, b)
		x2, err2 := RidgeLeastSquares(a, b, 1e-10)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2")
	}
	if Dist2([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Fatal("Dist2")
	}
}

// primalRidge is the Cols×Cols form of RidgeLeastSquares, the only one
// there was before the dual form: the oracle the dual is compared with.
func primalRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	g := a.Gram()
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	return Solve(g, a.T().MulVec(b))
}

func randomSystem(rows, cols int, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// Wide systems take the dual form; the fitted values A·x must be those of
// the primal form, which is the same estimator.
func TestRidgeDualMatchesPrimal(t *testing.T) {
	for _, shape := range [][2]int{{10, 40}, {28, 326}} {
		a, b := randomSystem(shape[0], shape[1], int64(shape[1]))
		dual, err := RidgeLeastSquares(a, b, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		primal, err := primalRidge(a, b, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		if len(dual) != a.Cols {
			t.Fatalf("%dx%d: %d coefficients", a.Rows, a.Cols, len(dual))
		}
		pd, pp := a.MulVec(dual), a.MulVec(primal)
		for i := range pd {
			if math.Abs(pd[i]-pp[i]) > 1e-6*math.Max(1, math.Abs(pp[i])) {
				t.Fatalf("%dx%d row %d: dual predicts %v, primal %v", a.Rows, a.Cols, i, pd[i], pp[i])
			}
		}
	}
}

// Every MARS and RBF solve has Rows ≥ Cols; that path must not move by a
// bit. The vector is what the commit before the dual form returned (amd64).
func TestRidgeTallSystemUnchanged(t *testing.T) {
	a, b := randomSystem(12, 5, 16)
	x, err := RidgeLeastSquares(a, b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0xbfd6d9ece13ea9e5, 0xbfc6d5566b51b675, 0xbfe1012f3dbcfecb,
		0xbfd3c0af18397868, 0x3fd6cc8e99f3b863,
	}
	for i, w := range want {
		if got := math.Float64bits(x[i]); got != w {
			t.Fatalf("x[%d] = %#x (%v), want %#x", i, got, x[i], w)
		}
	}
}
