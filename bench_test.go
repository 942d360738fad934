// Top-level benchmarks: one per table/figure of the paper's evaluation
// (each runs the corresponding experiment harness at a reduced scale so
// `go test -bench=.` finishes in minutes), plus ablation benches for the
// design choices DESIGN.md calls out. The full-scale numbers come from
// `go run ./cmd/bench -exp all` and are recorded in EXPERIMENTS.md.
package bismarck_test

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"bismarck"
	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/experiments"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, Workers: 4, Budget: 5 * time.Second, Seed: 42}
}

func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1Datasets(b *testing.B)    { runExp(b, "table1") }
func BenchmarkFig5CATX(b *testing.B)          { runExp(b, "fig5") }
func BenchmarkTable2PureUDA(b *testing.B)     { runExp(b, "table2") }
func BenchmarkTable3SharedMem(b *testing.B)   { runExp(b, "table3") }
func BenchmarkFig7AEndToEnd(b *testing.B)     { runExp(b, "fig7a") }
func BenchmarkFig7BCRF(b *testing.B)          { runExp(b, "fig7b") }
func BenchmarkTable4Scalability(b *testing.B) { runExp(b, "table4") }
func BenchmarkFig8Ordering(b *testing.B)      { runExp(b, "fig8") }
func BenchmarkFig9AParallel(b *testing.B)     { runExp(b, "fig9a") }
func BenchmarkFig9BSpeedup(b *testing.B)      { runExp(b, "fig9b") }
func BenchmarkFig10AMRS(b *testing.B)         { runExp(b, "fig10a") }
func BenchmarkFig10BBuffers(b *testing.B)     { runExp(b, "fig10b") }

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkStepRules measures the cost/effect of the three step-size rules
// on one LR epoch trajectory (fixed epochs, loss not evaluated).
func BenchmarkStepRules(b *testing.B) {
	tbl := data.Forest(5000, 1)
	for _, c := range []struct {
		name string
		rule bismarck.StepRule
	}{
		{"Constant", bismarck.ConstantStep{A: 0.05}},
		{"Diminishing", bismarck.DiminishingStep{A0: 0.05}},
		{"Geometric", bismarck.GeometricStep{A0: 0.05, Rho: 0.9}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := &bismarck.Trainer{Task: bismarck.NewLR(54), Step: c.rule,
					MaxEpochs: 5, SkipLoss: true, Seed: 1}
				if _, err := tr.Run(tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUDAPlans compares the pure-UDA (state merge) plan against the
// shared-memory plan for the same epoch of work.
func BenchmarkUDAPlans(b *testing.B) {
	tbl := data.Forest(20000, 2)
	if err := tbl.Flush(); err != nil {
		b.Fatal(err)
	}
	task := tasks.NewLR(54)
	b.Run("PureUDA4seg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg := &core.IGDAggregate{Task: task, Alpha: 0.01, Init: core.InitialModel(task, 1)}
			if _, err := engine.RunUDA(tbl, agg, engine.Profile{Segments: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SharedMem4w", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := parallel.NewAtomicModel(task.Dim(), false)
			err := engine.RunSharedScan(tbl, 4, engine.Profile{}, func(_ int, tp engine.Tuple) error {
				task.Step(m, tp, 0.01)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAIGvsNoLock isolates the per-component CAS cost of AIG against
// NoLock's racy adds on a realistic sparse update stream.
func BenchmarkAIGvsNoLock(b *testing.B) {
	tbl := data.DBLife(4000, 41000, 12, 3)
	if err := tbl.Flush(); err != nil {
		b.Fatal(err)
	}
	task := tasks.NewLR(41000)
	for _, mode := range []parallel.Mode{parallel.AIG, parallel.NoLock, parallel.Lock} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := &parallel.Trainer{Task: task, Step: bismarck.ConstantStep{A: 0.05},
					MaxEpochs: 1, Workers: 4, Mode: mode, SkipLoss: true, Seed: 1}
				if _, err := tr.Run(tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShuffleCost measures the ORDER BY RANDOM() table rewrite that
// ShuffleAlways pays per epoch (the heart of the §3.2 trade-off).
func BenchmarkShuffleCost(b *testing.B) {
	b.Run("Shuffle16k", func(b *testing.B) {
		tbl := data.DBLife(16000, 41000, 12, 5)
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tbl.Shuffle(rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GradientEpoch16k", func(b *testing.B) {
		tbl := data.DBLife(16000, 41000, 12, 5)
		task := tasks.NewLR(41000)
		m := core.NewDenseModel(task.Dim())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := tbl.Scan(func(tp engine.Tuple) error {
				task.Step(m, tp, 0.01)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOrderingStrategies runs three epochs under each strategy,
// capturing Prepare (shuffle) costs in context. PhysicalReorder pins the
// paper-faithful on-disk rewrite — the cost this bench exists to show.
func BenchmarkOrderingStrategies(b *testing.B) {
	for _, strat := range []core.OrderStrategy{ordering.Clustered{}, ordering.ShuffleOnce{}, ordering.ShuffleAlways{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			tbl := data.DBLife(8000, 41000, 12, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := &bismarck.Trainer{Task: bismarck.NewLR(41000), Step: bismarck.DefaultStep(0.2),
					MaxEpochs: 3, SkipLoss: true, Order: strat, Seed: 1,
					Profile: engine.Profile{PhysicalReorder: true}}
				if _, err := tr.Run(tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderingLogical is the cached-pipeline counterpart of
// BenchmarkOrderingStrategies: the same three epochs, with shuffles
// expressed as permutations of the decoded-row cache's index — the
// ablation DESIGN.md §5 calls "logical vs physical reorder".
func BenchmarkOrderingLogical(b *testing.B) {
	for _, strat := range []core.OrderStrategy{ordering.ShuffleOnce{}, ordering.ShuffleAlways{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			tbl := data.DBLife(8000, 41000, 12, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := &bismarck.Trainer{Task: bismarck.NewLR(41000), Step: bismarck.DefaultStep(0.2),
					MaxEpochs: 3, SkipLoss: true, Order: strat, Seed: 1}
				if _, err := tr.Run(tbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDotAxpy isolates the fused step kernel against the separate
// dot-then-axpy calls it replaced.
func BenchmarkDotAxpy(b *testing.B) {
	const d = 1024
	w, x := make(vector.Dense, d), make(vector.Dense, d)
	for i := range x {
		x[i] = float64(i%7) * 0.25
	}
	b.Run("Fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vector.DotAxpy(w, x, func(dot float64) float64 { return 1e-9 * dot })
		}
	})
	b.Run("Split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dot := vector.Dot(w, x)
			vector.Axpy(w, x, 1e-9*dot)
		}
	})
}
