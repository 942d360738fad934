// Package baselines implements the algorithm classes behind the tools the
// paper compares against, so the benchmark harness can reproduce "who wins
// and why":
//
//   - IRLS (Newton) logistic regression — MADlib-style LR, super-linear in
//     the model dimension (d×d Hessian solve per iteration).
//   - Batch (full-)gradient trainers for LR/SVM — classic in-RDBMS gradient
//     tools that must touch all data for every single step.
//   - ALS matrix factorization — MADlib-style LMF, solving k×k normal
//     equations per row/column.
//   - Batch CRF trainers standing in for CRF++ and Mallet.
//
// None of these share Bismarck's tuple-at-a-time UDA shape; that contrast
// is the point of Figure 7 and Table 4. They do share its loop: each is a
// core.EpochRunner whose Run is one iteration or sweep, so core.Drive owns
// their convergence test, deadline and timing exactly as it does IGD's.
package baselines

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major d×d matrix used by the Newton/ALS solvers.
type Matrix struct {
	N int
	A []float64
}

// NewMatrix returns a zero n×n matrix.
func NewMatrix(n int) *Matrix { return &Matrix{N: n, A: make([]float64, n*n)} }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// AddDiag adds v to every diagonal element.
func (m *Matrix) AddDiag(v float64) {
	for i := 0; i < m.N; i++ {
		m.A[i*m.N+i] += v
	}
}

// Solve solves A·x = b in place by Gaussian elimination with partial
// pivoting, destroying A and b. It returns the solution (aliasing b).
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	n := m.N
	if len(b) != n {
		return nil, fmt.Errorf("baselines: Solve dimension mismatch %d vs %d", len(b), n)
	}
	a := m.A
	for col := 0; col < n; col++ {
		// Pivot.
		piv, pmax := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return nil, fmt.Errorf("baselines: singular matrix at column %d", col)
		}
		if piv != col {
			for j := col; j < n; j++ {
				a[col*n+j], a[piv*n+j] = a[piv*n+j], a[col*n+j]
			}
			b[col], b[piv] = b[piv], b[col]
		}
		// Eliminate below.
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for j := col + 1; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * b[j]
		}
		b[i] = s / a[i*n+i]
	}
	return b, nil
}
