// Allocation-regression tests for the zero-allocation epoch pipeline: the
// steady-state cached epoch (dense LR and sparse SVM) and the fused step
// kernel must not allocate. These guard the whole point of the decoded-row
// cache — a regression here silently reintroduces the decode-and-allocate
// pass per row per epoch that the cache exists to remove.
package bismarck_test

import (
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/experiments"
	"bismarck/internal/ordering"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// TestEpochScanAllocs asserts that a full cached epoch of gradient steps
// allocates (almost) nothing, and that the reuse-scratch fallback stays
// within its small constant budget.
func TestEpochScanAllocs(t *testing.T) {
	cases, err := experiments.EpochScanCases(2000, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]float64{
		"dense-lr/cached/1w":   1, // acceptance bound: ≤1 alloc per epoch
		"sparse-svm/cached/1w": 1,
		"dense-lr/reuse/1w":    16, // one scratch + decode high-water growth
		"sparse-svm/reuse/1w":  16,
	}
	for name, budget := range budgets {
		c, err := experiments.FindEpochScanCase(cases, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil { // warm up scratch high-water marks
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.1f allocs per epoch, budget %.0f", name, allocs, budget)
		}
	}
}

// TestAllocBudgetRealPlan gates the plan a default TRAIN actually runs —
// core.NewUDARunner + core.Drive over a projected, primed view — rather
// than a hand-built step closure: the allocations one more epoch costs
// (aggregate, state, model clone, scan scratch, loss pass) must fit a small
// constant that does not grow with the row count.
func TestAllocBudgetRealPlan(t *testing.T) {
	const perEpochBudget = 16
	st, err := spec.Parse(`SELECT * FROM src TO TRAIN lr INTO m;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  func(rows int) *engine.Table
		task core.Task
	}{
		{"dense-lr", func(rows int) *engine.Table { return data.Forest(rows, 7) }, tasks.NewLR(54)},
		{"sparse-svm", func(rows int) *engine.Table { return data.DBLife(rows, 41000, 12, 8) }, tasks.NewSVM(41000)},
	} {
		for _, rows := range []int{500, 4000} {
			src := c.src(rows)
			view, err := spec.ProjectView(src, st, src.Schema, spec.ViewOptions{})
			if err != nil {
				t.Fatal(err)
			}
			train := func(epochs int) float64 {
				return testing.AllocsPerRun(3, func() {
					r, err := core.NewUDARunner(c.task, view.Table, ordering.ShuffleOnce{}, engine.Profile{}, 1, false)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := core.Drive(r, core.LoopConfig{Task: c.task, Step: core.ConstantStep{A: 0.01},
						MaxEpochs: epochs, Seed: 1}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if perEpoch := (train(9) - train(1)) / 8; perEpoch > perEpochBudget {
				t.Errorf("%s over %d rows: %.1f allocations per epoch, budget %d",
					c.name, rows, perEpoch, perEpochBudget)
			}
		}
	}
}

// TestShardedEpochAllocs asserts the shared-nothing epoch workers are
// zero-alloc in steady state: all per-shard machinery (epoch sources,
// replicas, step closures) is built once, so a whole sharded epoch —
// thousands of rows — stays within a tiny constant budget that only covers
// goroutine spawn bookkeeping. Any per-row allocation would blow the
// budget by orders of magnitude.
func TestShardedEpochAllocs(t *testing.T) {
	cases, err := experiments.ShardedEpochCases(2000, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]float64{
		"dense-lr/sharded/1w":   2,
		"dense-lr/sharded/4w":   8,
		"sparse-svm/sharded/1w": 2,
		"sparse-svm/sharded/4w": 8,
	}
	for name, budget := range budgets {
		c, err := experiments.FindEpochScanCase(cases, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil { // warm up goroutine free lists
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.1f allocs per sharded epoch, budget %.0f", name, allocs, budget)
		}
	}
}

// TestStepAllocs asserts the per-tuple transition functions of the linear
// tasks are allocation-free on a dense model: the fused-kernel gain
// closures must stay on the stack.
func TestStepAllocs(t *testing.T) {
	dense := engine.Tuple{
		engine.I64(0),
		engine.DenseV(make(vector.Dense, 54)),
		engine.F64(1),
	}
	sparse := engine.Tuple{
		engine.I64(0),
		engine.SparseV(vector.NewSparse([]int32{3, 17, 40000}, []float64{1, -2, 3})),
		engine.F64(-1),
	}
	for _, c := range []struct {
		name string
		task core.Task
		tp   engine.Tuple
	}{
		{"LR/dense", tasks.NewLR(54), dense},
		{"LR/sparse", tasks.NewLR(41000), sparse},
		{"SVM/dense", tasks.NewSVM(54), dense},
		{"SVM/sparse", tasks.NewSVM(41000), sparse},
		{"Lasso/dense", tasks.NewLasso(54, 0.01), dense},
	} {
		m := core.NewDenseModel(c.task.Dim())
		if allocs := testing.AllocsPerRun(100, func() {
			c.task.Step(m, c.tp, 0.01)
		}); allocs != 0 {
			t.Errorf("%s: Step allocates %.1f per call, want 0", c.name, allocs)
		}
	}
}

// TestDotAxpyAllocs asserts the fused vector kernel itself is
// allocation-free, including through a capturing gain closure.
func TestDotAxpyAllocs(t *testing.T) {
	w, x := make(vector.Dense, 256), make(vector.Dense, 256)
	for i := range x {
		x[i] = float64(i)
	}
	alpha, y := 0.01, 1.0
	if allocs := testing.AllocsPerRun(100, func() {
		vector.DotAxpy(w, x, func(dot float64) float64 { return alpha * y * dot })
	}); allocs != 0 {
		t.Errorf("DotAxpy allocates %.1f per call, want 0", allocs)
	}
	sx := vector.NewSparse([]int32{1, 100, 200}, []float64{1, 2, 3})
	if allocs := testing.AllocsPerRun(100, func() {
		vector.DotAxpySparse(w, sx, func(dot float64) float64 { return alpha * dot })
	}); allocs != 0 {
		t.Errorf("DotAxpySparse allocates %.1f per call, want 0", allocs)
	}
}

// TestCachedPipelineConvergesLikePhysical is the end-to-end guard for the
// logical-shuffle path: the same LR problem trained through the cached
// pipeline and through the paper-faithful physical pipeline must both
// converge to models with comparable loss.
func TestCachedPipelineConvergesLikePhysical(t *testing.T) {
	run := func(physical bool) float64 {
		tbl := data.Forest(2000, 3)
		tr := &core.Trainer{
			Task: tasks.NewLR(54), Step: core.ConstantStep{A: 0.05},
			MaxEpochs: 8, Seed: 1, Order: ordering.ShuffleOnce{},
			Profile: engine.Profile{PhysicalReorder: physical},
		}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss()
	}
	cached, physical := run(false), run(true)
	if cached <= 0 || physical <= 0 {
		t.Fatalf("degenerate losses: cached=%g physical=%g", cached, physical)
	}
	if ratio := cached / physical; ratio > 1.1 || ratio < 0.9 {
		t.Errorf("cached pipeline loss %g diverges from physical %g (ratio %.3f)",
			cached, physical, ratio)
	}
}
