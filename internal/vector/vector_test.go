package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotBasic(t *testing.T) {
	a := Dense{1, 2, 3}
	b := Dense{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot(Dense{1}, Dense{1, 2})
}

func TestAxpy(t *testing.T) {
	w := Dense{1, 1, 1}
	Axpy(w, Dense{1, 2, 3}, 2)
	want := Dense{3, 5, 7}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", w, want)
		}
	}
}

func TestNorms(t *testing.T) {
	v := Dense{3, -4}
	if got := v.Norm2(); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.Norm1(); !almostEq(got, 7, 1e-12) {
		t.Errorf("Norm1 = %v, want 7", got)
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2(Dense{0, 0}, Dense{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Dist2 = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Dense{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestZero(t *testing.T) {
	v := Dense{1, 2, 3}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatal("Zero left a non-zero component")
		}
	}
}

func TestScale(t *testing.T) {
	v := Dense{1, -2}
	v.Scale(-3)
	if v[0] != -3 || v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestNewSparseSortsAndDedups(t *testing.T) {
	s := NewSparse([]int32{5, 1, 5, 3}, []float64{50, 10, 55, 30})
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	wantIdx := []int32{1, 3, 5}
	wantVal := []float64{10, 30, 55} // later duplicate wins
	for k := range wantIdx {
		if s.Idx[k] != wantIdx[k] || s.Val[k] != wantVal[k] {
			t.Fatalf("sparse = %+v", s)
		}
	}
}

// toDense expands s into a dense vector of dimension d.
func toDense(s Sparse, d int) Dense {
	w := NewDense(d)
	for k, i := range s.Idx {
		w[i] = s.Val[k]
	}
	return w
}

func TestDotSparseMatchesDense(t *testing.T) {
	w := Dense{1, 2, 3, 4}
	x := NewSparse([]int32{1, 3}, []float64{10, -1})
	want := Dot(w, toDense(x, 4))
	if got := DotSparse(w, x); !almostEq(got, want, 1e-12) {
		t.Fatalf("DotSparse = %v, want %v", got, want)
	}
}

func TestDotSparseIgnoresOutOfRange(t *testing.T) {
	w := Dense{1, 1}
	x := NewSparse([]int32{0, 9}, []float64{5, 100})
	if got := DotSparse(w, x); got != 5 {
		t.Fatalf("DotSparse = %v, want 5", got)
	}
}

func TestAxpySparseMatchesDense(t *testing.T) {
	w := Dense{1, 1, 1}
	x := NewSparse([]int32{0, 2}, []float64{1, 2})
	AxpySparse(w, x, 3)
	want := Dense{4, 1, 7}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("AxpySparse = %v, want %v", w, want)
		}
	}
}

func TestSparseMaxIdx(t *testing.T) {
	if got := (Sparse{}).MaxIdx(); got != 0 {
		t.Fatalf("empty MaxIdx = %d", got)
	}
	s := NewSparse([]int32{7}, []float64{1})
	if got := s.MaxIdx(); got != 8 {
		t.Fatalf("MaxIdx = %d, want 8", got)
	}
}

func TestSparseCloneIndependence(t *testing.T) {
	s := NewSparse([]int32{1}, []float64{2})
	c := s.Clone()
	c.Val[0] = 99
	if s.Val[0] != 2 {
		t.Fatal("Clone must not alias")
	}
}

// Property: Dot is symmetric and bilinear-ish under scaling.
func TestQuickDotSymmetric(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		n := len(xs) / 2
		a, b := Dense(xs[:n]), Dense(xs[n:2*n])
		d1, d2 := Dot(a, b), Dot(b, a)
		if math.IsNaN(d1) || math.IsInf(d1, 0) {
			return true // degenerate random input
		}
		return almostEq(d1, d2, 1e-9*(1+math.Abs(d1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz |<a,b>| <= |a||b|.
func TestQuickCauchySchwarz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		a, b := NewDense(n), NewDense(n)
		for i := 0; i < n; i++ {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if math.Abs(Dot(a, b)) > a.Norm2()*b.Norm2()+1e-9 {
			t.Fatalf("Cauchy-Schwarz violated at trial %d", trial)
		}
	}
}

// Property: DotSparse(w, x) == Dot(w, dense(x)) for any sparse x in range.
func TestQuickDotSparseConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(64)
		w := NewDense(d)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		nnz := rng.Intn(d)
		idx := make([]int32, nnz)
		val := make([]float64, nnz)
		for k := 0; k < nnz; k++ {
			idx[k] = int32(rng.Intn(d))
			val[k] = rng.NormFloat64()
		}
		s := NewSparse(idx, val)
		want := Dot(w, toDense(s, d))
		if got := DotSparse(w, s); !almostEq(got, want, 1e-9*(1+math.Abs(want))) {
			t.Fatalf("trial %d: DotSparse=%v want %v", trial, got, want)
		}
	}
}

// Property: NewSparse output is sorted strictly ascending.
func TestQuickNewSparseSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		idx := make([]int32, len(raw))
		val := make([]float64, len(raw))
		for i, r := range raw {
			idx[i] = int32(r)
			val[i] = float64(i)
		}
		s := NewSparse(idx, val)
		for k := 1; k < len(s.Idx); k++ {
			if s.Idx[k-1] >= s.Idx[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVectorKernels(b *testing.B) {
	const d = 1024
	w := NewDense(d)
	x := NewDense(d)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < d; i++ {
		w[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var sp Sparse // keep the ~13% of entries past 1.5
	for i, v := range x {
		if math.Abs(v) > 1.5 {
			sp.Idx, sp.Val = append(sp.Idx, int32(i)), append(sp.Val, v)
		}
	}
	b.Run("DenseDot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Dot(w, x)
		}
	})
	b.Run("DenseAxpy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(w, x, 1e-9)
		}
	})
	b.Run("SparseDot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = DotSparse(w, sp)
		}
	})
	b.Run("SparseAxpy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AxpySparse(w, sp, 1e-9)
		}
	})
}
