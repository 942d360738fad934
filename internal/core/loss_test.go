package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// dotTask is a logistic loss over a dense or sparse vec column.
type dotTask struct{ d int }

func (dotTask) Name() string                      { return "dot" }
func (t dotTask) Dim() int                        { return t.d }
func (dotTask) Step(Model, engine.Tuple, float64) {}
func (dotTask) Loss(w vector.Dense, tp engine.Tuple) float64 {
	var wx float64
	if v := tp[1]; v.Type == engine.TSparseVec {
		for k, i := range v.Sparse.Idx {
			wx += w[i] * v.Sparse.Val[k]
		}
	} else {
		for i, x := range v.Dense {
			wx += w[i] * x
		}
	}
	return math.Log1p(math.Exp(-tp[2].Float * wx))
}

// withWorkers runs fn with the read-only passes on k workers.
func withWorkers(k int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	fn()
}

// lossTable is n random rows over a dense or sparse vec column of width d.
func lossTable(n, d int, sparse bool) *engine.Table {
	typ := engine.TDenseVec
	if sparse {
		typ = engine.TSparseVec
	}
	tbl := engine.NewMemTable("l", engine.Schema{{Name: "id", Type: engine.TInt64},
		{Name: "vec", Type: typ}, {Name: "label", Type: engine.TFloat64}})
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		v := engine.DenseV(make(vector.Dense, d))
		for j := range v.Dense {
			v.Dense[j] = rng.NormFloat64()
		}
		if sparse {
			v = engine.SparseV(vector.NewSparse([]int32{int32(i % d), int32(d - 1)}, []float64{rng.NormFloat64(), 1}))
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), v, engine.F64(float64(1 - 2*(i%2)))})
	}
	return tbl
}

// TestBlockedLossWorkerInvariant: the loss pass returns the same bits at 1,
// 2, 3 and 8 workers, over a cached view and through the uncached scan,
// dense and sparse; at most one block, the bits are the plain left-to-right
// sum.
func TestBlockedLossWorkerInvariant(t *testing.T) {
	const d = 17
	w := make(vector.Dense, d)
	for j := range w {
		w[j] = math.Sin(float64(j)) / 3
	}
	task := dotTask{d}
	for _, sparse := range []bool{false, true} {
		for _, n := range []int{engine.BlockRows, 3*engine.BlockRows + 123} {
			var want float64
			for i, k := range []int{1, 2, 3, 8} {
				var uncached, cached float64
				withWorkers(k, func() {
					tbl := lossTable(n, d, sparse)
					var err error
					if uncached, err = TotalLoss(task, w, tbl); err != nil {
						t.Fatal(err)
					}
					if _, err := tbl.Materialize(); err != nil {
						t.Fatal(err)
					}
					if cached, err = TotalLoss(task, w, tbl); err != nil {
						t.Fatal(err)
					}
				})
				if i == 0 {
					want = cached
				}
				if math.Float64bits(cached) != math.Float64bits(want) || math.Float64bits(uncached) != math.Float64bits(want) {
					t.Fatalf("sparse=%v n=%d workers=%d: cached %v, uncached %v, workers=1 %v", sparse, n, k, cached, uncached, want)
				}
			}
			if n <= engine.BlockRows {
				var sum float64
				if err := lossTable(n, d, sparse).Scan(func(tp engine.Tuple) error { sum += task.Loss(w, tp); return nil }); err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(sum) != math.Float64bits(want) {
					t.Fatalf("sparse=%v n=%d: one block sums to %v, left to right %v", sparse, n, want, sum)
				}
			}
		}
	}
}

// panicTask's loss panics on row at.
type panicTask struct {
	dotTask
	at int64
}

func (p panicTask) Loss(w vector.Dense, tp engine.Tuple) float64 {
	if tp[0].Int == p.at {
		panic("injected loss panic")
	}
	return p.dotTask.Loss(w, tp)
}

// TestBlockedLossPanicIsAnError: a task whose loss panics on one row fails
// the pass with an error, on one worker or several, over a cache of one
// block or of several and through the uncached scan.
func TestBlockedLossPanicIsAnError(t *testing.T) {
	for _, n := range []int{300, 3 * engine.BlockRows} {
		task := panicTask{dotTask{4}, int64(n - 7)}
		for _, cached := range []bool{false, true} {
			tbl := lossTable(n, 4, false)
			if cached {
				if _, err := tbl.Materialize(); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []int{1, 2} {
				withWorkers(k, func() {
					if _, err := TotalLoss(task, make(vector.Dense, 4), tbl); err == nil || !strings.Contains(err.Error(), "panicked") {
						t.Fatalf("n=%d cached=%v workers=%d: a panicking loss must fail the pass, got %v", n, cached, k, err)
					}
				})
			}
		}
	}
}
