// Package tasks implements the analytics techniques of Figure 1 as Bismarck
// tasks: logistic regression, SVM classification, low-rank matrix
// factorization, linear-chain conditional random fields, Kalman filter
// fitting, least squares (including the paper's 1-D CA-TX example), and
// portfolio optimization. Each task is a few dozen lines — the point of the
// paper — because everything else (epoch loop, ordering, parallelism,
// sampling) is shared.
package tasks

import (
	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// Standard schemas used by the classification-style tasks and generators.
var (
	// DenseExampleSchema is (id, vec float[], label) — Forest-style rows.
	DenseExampleSchema = engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "vec", Type: engine.TDenseVec},
		{Name: "label", Type: engine.TFloat64},
	}
	// SparseExampleSchema is (id, vec sparse, label) — DBLife-style rows.
	SparseExampleSchema = engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "vec", Type: engine.TSparseVec},
		{Name: "label", Type: engine.TFloat64},
	}
	// RatingSchema is (i, j, rating) — MovieLens-style sparse matrix cells.
	RatingSchema = engine.Schema{
		{Name: "row", Type: engine.TInt64},
		{Name: "col", Type: engine.TInt64},
		{Name: "rating", Type: engine.TFloat64},
	}
	// SeqSchema is one token sequence per row for CRF: offsets[t]..offsets[t+1]
	// index the active features of token t in feats; labels[t] is its tag.
	SeqSchema = engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "offsets", Type: engine.TInt32Vec},
		{Name: "feats", Type: engine.TInt32Vec},
		{Name: "labels", Type: engine.TInt32Vec},
	}
	// SeriesSchema is (t, y float[]) — one time step of a noisy series.
	SeriesSchema = engine.Schema{
		{Name: "t", Type: engine.TInt64},
		{Name: "y", Type: engine.TDenseVec},
	}
	// ReturnSchema is (id, r float[]) — one observation of asset returns.
	ReturnSchema = engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "r", Type: engine.TDenseVec},
	}
)

// Column positions shared by DenseExampleSchema and SparseExampleSchema
// (the id is column 0).
const (
	ColVec   = 1
	ColLabel = 2
)

// dotFeatures computes w·x where x is the tuple's feature value, which may
// be dense or sparse, against a dense snapshot w. Feature components beyond
// the model's dimension are ignored (a prediction-time table may be wider
// than the table the model was trained on).
func dotFeatures(w vector.Dense, v engine.Value) float64 {
	if v.Type == engine.TSparseVec {
		return vector.DotSparse(w, v.Sparse)
	}
	x := v.Dense
	if len(x) > len(w) {
		x = x[:len(w)]
	}
	return vector.Dot(w[:len(x)], x)
}

// dotModel computes w·x reading components through the Model interface,
// with a fast path for the plain dense model.
func dotModel(m core.Model, v engine.Value) float64 {
	if dm, ok := m.(*core.DenseModel); ok {
		return dotFeatures(dm.W, v)
	}
	var s float64
	d := m.Dim()
	if v.Type == engine.TSparseVec {
		for k, i := range v.Sparse.Idx {
			if int(i) < d {
				s += m.Get(int(i)) * v.Sparse.Val[k]
			}
		}
		return s
	}
	for i, x := range v.Dense {
		if i >= d {
			break
		}
		s += m.Get(i) * x
	}
	return s
}

// axpyModel performs m += c·x (the paper's Scale_And_Add) through the Model
// interface, with a fast path for the plain dense model.
func axpyModel(m core.Model, v engine.Value, c float64) {
	if dm, ok := m.(*core.DenseModel); ok {
		if v.Type == engine.TSparseVec {
			vector.AxpySparse(dm.W, v.Sparse, c)
		} else {
			x := v.Dense
			if len(x) > len(dm.W) {
				x = x[:len(dm.W)] // ignore features beyond the model dim
			}
			vector.Axpy(dm.W[:len(x)], x, c)
		}
		return
	}
	d := m.Dim()
	if v.Type == engine.TSparseVec {
		for k, i := range v.Sparse.Idx {
			if int(i) < d {
				m.Add(int(i), c*v.Sparse.Val[k])
			}
		}
		return
	}
	for i, x := range v.Dense {
		if i >= d {
			break
		}
		m.Add(i, c*x)
	}
}

// fusedStep is the shared transition-function kernel of the linear tasks:
// it computes wx = w·x, calls gain(wx) for the step coefficient (the task's
// scalar work — sigmoid, margin test, residual, per-step shrinkage — runs
// between the two phases), applies w += gain(wx)·x, and returns wx. The
// DenseModel fast path runs the fused unrolled vector kernels; other models
// go through the component-wise Model interface. The gain closure must not
// escape — it is called exactly once, so Go keeps it on the stack and the
// steady-state step is allocation-free.
func fusedStep(m core.Model, v engine.Value, gain func(wx float64) float64) float64 {
	if dm, ok := m.(*core.DenseModel); ok {
		if v.Type == engine.TSparseVec {
			return vector.DotAxpySparse(dm.W, v.Sparse, gain)
		}
		x := v.Dense
		if len(x) > len(dm.W) {
			x = x[:len(dm.W)] // ignore features beyond the model dim
		}
		return vector.DotAxpy(dm.W[:len(x)], x, gain)
	}
	wx := dotModel(m, v)
	if c := gain(wx); c != 0 {
		axpyModel(m, v, c)
	}
	return wx
}

// shrinkTouched applies per-step L2 shrinkage w_i ← w_i·(1−αµ) only on the
// coordinates touched by the example — the standard sparse-SGD treatment of
// the regularizer, which keeps the transition cost proportional to the
// example's nonzeros.
func shrinkTouched(m core.Model, v engine.Value, alphaMu float64) {
	if alphaMu <= 0 {
		return
	}
	c := -alphaMu
	d := m.Dim()
	if v.Type == engine.TSparseVec {
		for _, i := range v.Sparse.Idx {
			if int(i) < d {
				m.Add(int(i), c*m.Get(int(i)))
			}
		}
		return
	}
	for i := range v.Dense {
		if i >= d {
			break
		}
		m.Add(i, c*m.Get(i))
	}
}

// DotFeatures computes w·x for a dense or sparse feature value against a
// dense model snapshot; exported for the task registration layer.
func DotFeatures(w vector.Dense, v engine.Value) float64 { return dotFeatures(w, v) }
