package tasks

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

func TestEvaluateBinaryPerfectClassifier(t *testing.T) {
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	// x[0] determines the label exactly.
	for i := 0; i < 40; i++ {
		y := float64(1)
		x := vector.Dense{1}
		if i%2 == 0 {
			y, x = -1, vector.Dense{-1}
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	task := NewSVM(1)
	w := vector.Dense{1}
	m, err := EvaluateBinary(task, w, tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 1 || m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.TP != 20 || m.TN != 20 || m.FP != 0 || m.FN != 0 {
		t.Fatalf("confusion = %+v", m)
	}
}

// TestBlockedEvaluateBinary: over a cached table of several blocks, the
// counts summed block by block on 1, 2, 3 or 8 workers are the counts of
// one uncached scan.
func TestBlockedEvaluateBinary(t *testing.T) {
	const n = 3*engine.BlockRows + 77
	rng := rand.New(rand.NewSource(4))
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	for i := 0; i < n; i++ {
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense{rng.NormFloat64(), 1}),
			engine.F64(float64(1 - 2*(i%2)))})
	}
	task, w := NewLR(2), vector.Dense{0.7, -0.1}
	want, err := EvaluateBinary(task, w, tbl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want.N != n || want.TP == 0 || want.FN == 0 {
		t.Fatalf("uncached metrics %+v", want)
	}
	if _, err := tbl.Materialize(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(k)
		got, err := EvaluateBinary(task, w, tbl, 0.5)
		runtime.GOMAXPROCS(prev)
		if err != nil || got != want {
			t.Fatalf("workers=%d: %+v, %v; one scan gives %+v", k, got, err, want)
		}
	}
}

// panicClassifier is SVM whose prediction panics on one feature value.
type panicClassifier struct{ *SVM }

func (p panicClassifier) Predict(w vector.Dense, x engine.Value) float64 {
	if x.Dense[0] == 2 {
		panic("injected predict panic")
	}
	return p.SVM.Predict(w, x)
}

// TestBlockedEvaluateBinaryPanic: a classifier that panics on one row
// fails EvaluateBinary with an error, cached or not, on one block or many.
func TestBlockedEvaluateBinaryPanic(t *testing.T) {
	for _, n := range []int{40, 2*engine.BlockRows + 5} {
		tbl := engine.NewMemTable("d", DenseExampleSchema)
		for i := 0; i < n; i++ {
			x := float64(i % 2)
			if i == n-3 {
				x = 2
			}
			tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense{x}), engine.F64(1)})
		}
		for _, cached := range []bool{false, true} {
			if cached {
				if _, err := tbl.Materialize(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := EvaluateBinary(panicClassifier{NewSVM(1)}, vector.Dense{1}, tbl, 0); err == nil {
				t.Fatalf("n=%d cached=%v: a panicking Predict must fail the pass", n, cached)
			}
		}
	}
}

func TestEvaluateBinaryAllWrong(t *testing.T) {
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	tbl.MustInsert(engine.Tuple{engine.I64(0), engine.DenseV(vector.Dense{1}), engine.F64(-1)})
	tbl.MustInsert(engine.Tuple{engine.I64(1), engine.DenseV(vector.Dense{-1}), engine.F64(1)})
	m, err := EvaluateBinary(NewSVM(1), vector.Dense{1}, tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 0 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEvaluateBinaryEmptyTable(t *testing.T) {
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	if _, err := EvaluateBinary(NewSVM(1), vector.Dense{1}, tbl, 0); err == nil {
		t.Fatal("expected error on empty table")
	}
}

func TestLMFRMSE(t *testing.T) {
	tbl := engine.NewMemTable("r", RatingSchema)
	task := NewLMF(2, 2, 1)
	// Model: L = [1;2], R = [3;4] => predictions 3,4,6,8.
	w := vector.Dense{1, 2, 3, 4}
	tbl.MustInsert(engine.Tuple{engine.I64(0), engine.I64(0), engine.F64(3)}) // exact
	tbl.MustInsert(engine.Tuple{engine.I64(1), engine.I64(1), engine.F64(10)})
	got, err := task.RMSE(w, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((0 + 4) / 2.0) // errors 0 and 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
	empty := engine.NewMemTable("e", RatingSchema)
	if _, err := task.RMSE(w, empty); err == nil {
		t.Fatal("expected error on empty table")
	}
}

func TestCRFTokenAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tbl := engine.NewMemTable("seq", SeqSchema)
	const F, L = 6, 2
	for s := 0; s < 40; s++ {
		T := 3 + rng.Intn(4)
		offsets := make([]int32, T+1)
		var feats []int32
		labels := make([]int32, T)
		for tt := 0; tt < T; tt++ {
			f := int32(rng.Intn(F))
			labels[tt] = f % 2
			feats = append(feats, f)
			offsets[tt+1] = int32(len(feats))
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(s)), engine.IntsV(offsets), engine.IntsV(feats), engine.IntsV(labels)})
	}
	task := NewCRF(F, L)
	tr := &core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.2, Rho: 0.95}, MaxEpochs: 25, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	correct, total, err := task.TokenAccuracy(res.Model, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || float64(correct)/float64(total) < 0.9 {
		t.Fatalf("accuracy %d/%d", correct, total)
	}
}
