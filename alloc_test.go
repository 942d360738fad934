// Allocation-regression tests for the zero-allocation epoch pipeline: one
// more epoch of a real plan (sequential or sharded) costs a constant number
// of allocations, and the fused step kernel allocates nothing. These guard
// the whole point of the decoded-row cache — a regression here silently
// reintroduces the decode-and-allocate pass per row per epoch that the
// cache exists to remove.
package bismarck_test

import (
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// planWorkloads are the dense and sparse sources the real-plan gates train
// on.
var planWorkloads = []struct {
	name string
	src  func(rows int) *engine.Table
	task core.Task
}{
	{"dense-lr", func(rows int) *engine.Table { return data.Forest(rows, 7) }, tasks.NewLR(54)},
	{"sparse-svm", func(rows int) *engine.Table { return data.DBLife(rows, 41000, 12, 8) }, tasks.NewSVM(41000)},
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
	for _, c := range planWorkloads {
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

// TestAllocBudgetShardedPlan gates the plan a WITH shards=K TRAIN runs —
// engine.ShardTable + parallel.NewShardedEpoch + core.Drive — the same way:
// every per-shard source, replica and step closure is built once, so one
// more epoch costs only the K worker spawns, the merge and the loss pass,
// a constant that does not grow with the row count.
func TestAllocBudgetShardedPlan(t *testing.T) {
	budgets := map[int]float64{1: 8, 4: 24}
	for _, c := range planWorkloads {
		for _, rows := range []int{500, 4000} {
			src := c.src(rows)
			for k, budget := range budgets {
				sharded, err := engine.ShardTable(src, k, engine.ShardRoundRobin)
				if err != nil {
					t.Fatal(err)
				}
				train := func(epochs int) float64 {
					return testing.AllocsPerRun(3, func() {
						se, err := parallel.NewShardedEpoch(c.task, sharded, ordering.ShuffleOnce{}, 1)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := core.Drive(se, core.LoopConfig{Task: c.task, Step: core.ConstantStep{A: 0.01},
							MaxEpochs: epochs, Seed: 1}); err != nil {
							t.Fatal(err)
						}
					})
				}
				if perEpoch := (train(9) - train(1)) / 8; perEpoch > budget {
					t.Errorf("%s K=%d over %d rows: %.1f allocations per epoch, budget %.0f",
						c.name, k, rows, perEpoch, budget)
				}
				sharded.Close()
			}
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
