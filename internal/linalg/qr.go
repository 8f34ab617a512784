package linalg

import (
	"errors"
	"math"
)

// QR holds a Householder QR factorization of an m x n matrix (m >= n):
// A = Q*R with Q orthogonal (m x m, stored implicitly) and R upper
// triangular (n x n).
type QR struct {
	qr    *Matrix   // Householder vectors below the diagonal, R on/above it
	rdiag []float64 // diagonal of R
}

// FactorQR computes the QR factorization of a. a is not modified.
func FactorQR(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, errors.New("linalg: QR requires rows >= cols")
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute 2-norm of column k below row k, with scaling for stability.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply transformation to remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// IsFullRank reports whether R has no (near-)zero diagonal entries.
func (f *QR) IsFullRank() bool {
	const tol = 1e-12
	maxd := 0.0
	for _, d := range f.rdiag {
		if v := math.Abs(d); v > maxd {
			maxd = v
		}
	}
	thresh := tol * maxd
	for _, d := range f.rdiag {
		if math.Abs(d) <= thresh {
			return false
		}
	}
	return len(f.rdiag) > 0
}

// Solve returns the least-squares solution x minimizing ‖A·x − b‖₂.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		return nil, errors.New("linalg: QR solve dimension mismatch")
	}
	if !f.IsFullRank() {
		return nil, ErrSingular
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Householder reflections: y = Qᵀ b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdiag[i]
	}
	return x, nil
}

// LeastSquares returns x minimizing ‖A·x − b‖₂ via QR; falls back to a
// ridge-regularized normal-equations solve when A is rank deficient, so
// callers always get a usable coefficient vector.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows >= a.Cols {
		if f, err := FactorQR(a); err == nil {
			if x, err := f.Solve(b); err == nil {
				return x, nil
			}
		}
	}
	return RidgeLeastSquares(a, b, 1e-8)
}

// RidgeLeastSquares solves (AᵀA + λI) x = Aᵀ b. λ > 0 guarantees a solution
// even for rank-deficient A. A with fewer rows than columns is solved in
// the dual form, x = Aᵀα with (AAᵀ + λI) α = b: the same minimiser, since
// (AᵀA + λI)⁻¹Aᵀ = Aᵀ(AAᵀ + λI)⁻¹, from a Rows×Rows system instead of a
// Cols×Cols one whose rank is at most Rows anyway.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, errors.New("linalg: ridge dimension mismatch")
	}
	if a.Rows < a.Cols {
		at := a.T()
		k := at.Gram() // AAᵀ
		for i := 0; i < k.Rows; i++ {
			k.Set(i, i, k.At(i, i)+lambda)
		}
		alpha, err := Solve(k, b)
		if err != nil {
			return nil, err
		}
		return at.MulVec(alpha), nil
	}
	g := a.Gram()
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	atb := a.T().MulVec(b)
	return Solve(g, atb)
}
