package core

import (
	"math"
	"sort"

	"bismarck/internal/vector"
)

// This file implements the proximal point operators of Appendix A:
//
//	Π_{αP}(x) = argmin_w  ½‖x − w‖² + αP(w)
//
// applied after each gradient step (Eq. 3) to handle regularization
// penalties and convex constraints without changing the data access
// pattern.

// ProxL1 applies soft-thresholding, the proximal operator of P(w)=µ‖w‖₁,
// in place: w_i ← sign(w_i)·max(|w_i|−αµ, 0).
func ProxL1(w vector.Dense, alphaMu float64) {
	if alphaMu <= 0 {
		return
	}
	for i, x := range w {
		switch {
		case x > alphaMu:
			w[i] = x - alphaMu
		case x < -alphaMu:
			w[i] = x + alphaMu
		default:
			w[i] = 0
		}
	}
}

// ProxL2 applies the proximal operator of P(w)=(µ/2)‖w‖₂², in place:
// w ← w/(1+αµ).
func ProxL2(w vector.Dense, alphaMu float64) {
	if alphaMu <= 0 {
		return
	}
	c := 1 / (1 + alphaMu)
	for i := range w {
		w[i] *= c
	}
}

// ProjectBall2 projects w onto the Euclidean ball of the given radius, in
// place — e.g. "the model has unit Euclidean norm" from Appendix A.
func ProjectBall2(w vector.Dense, radius float64) {
	n := w.Norm2()
	if n <= radius || n == 0 {
		return
	}
	w.Scale(radius / n)
}

// ProjectSimplex projects w onto the probability simplex
// ∆ = {w : Σw_i = 1, w_i ≥ 0} in place, using the O(d log d) sort-based
// algorithm. This is the constraint set of the portfolio task in Figure 1.
func ProjectSimplex(w vector.Dense) {
	d := len(w)
	if d == 0 {
		return
	}
	sorted := make([]float64, d)
	copy(sorted, w)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cum, theta float64
	k := 0
	for i := 0; i < d; i++ {
		cum += sorted[i]
		t := (cum - 1) / float64(i+1)
		if sorted[i]-t > 0 {
			k = i + 1
			theta = t
		}
	}
	if k == 0 { // all mass collapses onto the max coordinate
		theta = sorted[0] - 1
	}
	for i := range w {
		w[i] = math.Max(w[i]-theta, 0)
	}
}
