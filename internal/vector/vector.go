// Package vector provides the dense and sparse float64 vector kernels used
// by every gradient computation in Bismarck: dot products, scaled additions
// (the paper's Scale_And_Add), norms, and conversions.
//
// Sparse vectors are stored in coordinate form (sorted index/value pairs),
// matching the "sparse-vector format" the paper uses for DBLife, CoNLL and
// DBLP. Dense vectors are plain []float64.
package vector

import (
	"fmt"
	"math"
	"sort"
)

// Dense is a dense float64 vector.
type Dense []float64

// NewDense returns a zero dense vector of dimension d.
func NewDense(d int) Dense { return make(Dense, d) }

// Dim returns the dimension of v.
func (v Dense) Dim() int { return len(v) }

// Clone returns a copy of v.
func (v Dense) Clone() Dense {
	w := make(Dense, len(v))
	copy(w, v)
	return w
}

// Zero sets every component of v to 0 in place.
func (v Dense) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of two dense vectors of equal dimension.
// The loop is 4-way unrolled with independent accumulators so the FPU adds
// pipeline instead of serializing on one running sum.
func Dot(a, b Dense) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: Dot dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy performs w += c*x for dense x (the paper's Scale_And_Add), 4-way
// unrolled like Dot.
func Axpy(w Dense, x Dense, c float64) {
	if len(w) != len(x) {
		panic(fmt.Sprintf("vector: Axpy dimension mismatch %d vs %d", len(w), len(x)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		w[i] += c * x[i]
		w[i+1] += c * x[i+1]
		w[i+2] += c * x[i+2]
		w[i+3] += c * x[i+3]
	}
	for ; i < len(x); i++ {
		w[i] += c * x[i]
	}
}

// DotAxpy is the fused IGD step kernel: it computes s = w·x, calls gain(s)
// for the step coefficient — the task's per-example scalar work (sigmoid,
// margin test, residual, per-step shrinkage) runs between the two phases —
// and then performs w += gain(s)·x, returning s. A zero coefficient skips
// the update pass entirely (an SVM example inside the margin costs only the
// dot product). Both loops are the unrolled kernels above; w and x must have
// equal length (callers pre-slice). The gain closure is invoked exactly once
// and must not retain w.
func DotAxpy(w, x Dense, gain func(dot float64) float64) float64 {
	s := Dot(w, x)
	if c := gain(s); c != 0 {
		Axpy(w, x, c)
	}
	return s
}

// DotAxpySparse is DotAxpy for a sparse example against a dense model:
// s = w·x, then w += gain(s)·x over the stored coordinates only. Indices of
// x beyond the dimension of w are ignored in both phases.
func DotAxpySparse(w Dense, x Sparse, gain func(dot float64) float64) float64 {
	s := DotSparse(w, x)
	if c := gain(s); c != 0 {
		AxpySparse(w, x, c)
	}
	return s
}

// Scale multiplies every component of w by c in place.
func (v Dense) Scale(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Dense) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of v.
func (v Dense) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b Dense) float64 {
	if len(a) != len(b) {
		panic("vector: Dist2 dimension mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sparse is a sparse vector in coordinate form. Idx is sorted ascending and
// has no duplicates; Val[i] is the value at dimension Idx[i].
type Sparse struct {
	Idx []int32
	Val []float64
}

// NewSparse builds a sparse vector from parallel index/value slices, sorting
// and deduplicating (later duplicates win). It copies its inputs.
func NewSparse(idx []int32, val []float64) Sparse {
	if len(idx) != len(val) {
		panic("vector: NewSparse len(idx) != len(val)")
	}
	type pair struct {
		i int32
		v float64
	}
	ps := make([]pair, len(idx))
	for k := range idx {
		ps[k] = pair{idx[k], val[k]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	out := Sparse{Idx: make([]int32, 0, len(ps)), Val: make([]float64, 0, len(ps))}
	for _, p := range ps {
		if n := len(out.Idx); n > 0 && out.Idx[n-1] == p.i {
			out.Val[n-1] = p.v
			continue
		}
		out.Idx = append(out.Idx, p.i)
		out.Val = append(out.Val, p.v)
	}
	return out
}

// NNZ returns the number of stored (non-zero) entries.
func (s Sparse) NNZ() int { return len(s.Idx) }

// MaxIdx returns the largest stored index plus one (a lower bound on the
// dimension), or 0 for an empty vector.
func (s Sparse) MaxIdx() int {
	if len(s.Idx) == 0 {
		return 0
	}
	return int(s.Idx[len(s.Idx)-1]) + 1
}

// Clone returns a deep copy of s.
func (s Sparse) Clone() Sparse {
	return Sparse{
		Idx: append([]int32(nil), s.Idx...),
		Val: append([]float64(nil), s.Val...),
	}
}

// DotSparse returns the inner product of a dense vector w and a sparse
// vector x. Indices of x beyond the dimension of w contribute zero. Because
// Idx is sorted ascending, checking the last index once replaces the
// per-element range test on the common all-in-range path.
func DotSparse(w Dense, x Sparse) float64 {
	n := len(x.Idx)
	if n == 0 {
		return 0
	}
	var s float64
	if int(x.Idx[n-1]) < len(w) {
		for k, i := range x.Idx {
			s += w[i] * x.Val[k]
		}
		return s
	}
	d := len(w)
	for k, i := range x.Idx {
		if int(i) < d {
			s += w[i] * x.Val[k]
		}
	}
	return s
}

// AxpySparse performs w += c*x for sparse x. Indices beyond the dimension of
// w are ignored; the sorted-index fast path mirrors DotSparse.
func AxpySparse(w Dense, x Sparse, c float64) {
	n := len(x.Idx)
	if n == 0 {
		return
	}
	if int(x.Idx[n-1]) < len(w) {
		for k, i := range x.Idx {
			w[i] += c * x.Val[k]
		}
		return
	}
	d := len(w)
	for k, i := range x.Idx {
		if int(i) < d {
			w[i] += c * x.Val[k]
		}
	}
}

// Norm2 returns the Euclidean norm of the sparse vector.
func (s Sparse) Norm2() float64 {
	var t float64
	for _, v := range s.Val {
		t += v * v
	}
	return math.Sqrt(t)
}
