package baselines

import (
	"math"
	"math/rand"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

func TestMatrixSolveIdentity(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		m.A[i*m.N+i] = 1
	}
	x, err := m.Solve([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, 2, 3} {
		if math.Abs(x[i]-v) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestMatrixSolveRandomSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		m := NewMatrix(n)
		truth := make([]float64, n)
		for i := range truth {
			truth[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.A[i*m.N+j] = rng.NormFloat64()
			}
			m.Add(i, i, 3) // keep well-conditioned
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m.A[i*m.N+j] * truth[j]
			}
		}
		x, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range truth {
			if math.Abs(x[i]-truth[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, x[i], truth[i])
			}
		}
	}
}

func TestMatrixSolveSingular(t *testing.T) {
	m := NewMatrix(2) // all zeros
	if _, err := m.Solve([]float64{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestMatrixSolveDimMismatch(t *testing.T) {
	m := NewMatrix(2)
	if _, err := m.Solve([]float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func denseLRTable(t *testing.T, n, d int, seed int64) (*engine.Table, vector.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth := make(vector.Dense, d)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	tbl := engine.NewMemTable("d", tasks.DenseExampleSchema)
	for i := 0; i < n; i++ {
		x := make(vector.Dense, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := float64(1)
		if vector.Dot(truth, x)+0.2*rng.NormFloat64() < 0 {
			y = -1
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	return tbl, truth
}

// drive runs a baseline runner under core.Drive with a constant step.
func drive(t *testing.T, r core.EpochRunner, task core.Task, alpha float64, iters int, relTol float64) *core.Result {
	t.Helper()
	res, err := core.Drive(r, core.LoopConfig{Task: task, Step: core.ConstantStep{A: alpha},
		MaxEpochs: iters, RelTol: relTol, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// batch runs line-search batch GD on tbl.
func batch(t *testing.T, task core.Task, tbl *engine.Table, alpha float64, iters int) *core.Result {
	t.Helper()
	r, err := NewBatchRunner(task, tbl, true)
	if err != nil {
		t.Fatal(err)
	}
	return drive(t, r, task, alpha, iters, 0)
}

func TestIRLSConvergesQuadratically(t *testing.T) {
	tbl, _ := denseLRTable(t, 400, 6, 1)
	lr := &tasks.LR{D: 6, Mu: 0.1}
	res := drive(t, NewIRLSRunner(lr, tbl), lr, 1, 20, 1e-8)
	if !res.Converged {
		t.Fatalf("IRLS did not converge in %d iters (losses %v)", res.Epochs, res.Losses)
	}
	// Newton on a smooth strongly convex objective converges in few iters.
	if res.Epochs > 12 {
		t.Fatalf("IRLS took %d iterations", res.Epochs)
	}
	// Its optimum must be at least as good as a long IGD run.
	igd, err := (&core.Trainer{Task: &tasks.LR{D: 6, Mu: 0.1}, Step: core.DefaultStep(0.1), MaxEpochs: 60, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() > igd.FinalLoss()*1.02 {
		t.Fatalf("IRLS loss %g worse than IGD %g", res.FinalLoss(), igd.FinalLoss())
	}
}

func TestBatchGDDecreasesLossOnLR(t *testing.T) {
	tbl, _ := denseLRTable(t, 300, 5, 3)
	res := batch(t, tasks.NewLR(5), tbl, 1.0, 40)
	if res.FinalLoss() >= res.Losses[0] {
		t.Fatalf("batch GD did not improve: %v", res.Losses)
	}
	for i := 1; i < len(res.Losses); i++ {
		if res.Losses[i] > res.Losses[i-1]*1.5 {
			t.Fatalf("batch GD unstable at iter %d: %v", i, res.Losses)
		}
	}
}

func TestBatchGDNeedsMoreScansThanIGDForSameLoss(t *testing.T) {
	// The core claim behind Figure 7: per full data scan, IGD makes N steps
	// while batch GD makes one.
	tbl, _ := denseLRTable(t, 400, 5, 4)
	igd, err := (&core.Trainer{Task: tasks.NewLR(5), Step: core.DefaultStep(0.3), MaxEpochs: 3, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	target := igd.FinalLoss()
	bres := batch(t, tasks.NewLR(5), tbl, 1.0, 3)
	if bres.FinalLoss() <= target {
		t.Fatalf("batch GD (%g) unexpectedly beat IGD (%g) at equal scans", bres.FinalLoss(), target)
	}
}

func TestBatchGDValidation(t *testing.T) {
	tbl, _ := denseLRTable(t, 10, 2, 5)
	r, err := NewBatchRunner(tasks.NewLR(2), tbl, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Drive(r, core.LoopConfig{Task: tasks.NewLR(2), Step: core.ConstantStep{}, MaxEpochs: 1}); err == nil {
		t.Fatal("a zero step must error")
	}
	empty := engine.NewMemTable("e", tasks.DenseExampleSchema)
	if _, err := NewBatchRunner(tasks.NewLR(2), empty, false); err == nil {
		t.Fatal("empty table must error")
	}
}

func ratingTable(t *testing.T, rows, cols, rank int, density float64, seed int64) *engine.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	factor := func() vector.Dense {
		v := vector.NewDense(rank)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	L := make([]vector.Dense, rows)
	R := make([]vector.Dense, cols)
	for i := range L {
		L[i] = factor()
	}
	for j := range R {
		R[j] = factor()
	}
	tbl := engine.NewMemTable("r", tasks.RatingSchema)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.I64(int64(j)), engine.F64(vector.Dot(L[i], R[j]))})
			}
		}
	}
	return tbl
}

func TestALSRecoversLowRankMatrix(t *testing.T) {
	tbl := ratingTable(t, 25, 20, 2, 0.5, 6)
	lmf := tasks.NewLMF(25, 20, 2)
	r, err := NewALSRunner(lmf, tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Drive(r, core.LoopConfig{Task: lmf, Step: core.ConstantStep{}, MaxEpochs: 60, RelTol: 1e-10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rmse := math.Sqrt(res.FinalLoss() / float64(tbl.NumRows()))
	if rmse > 0.05 {
		t.Fatalf("ALS rmse = %g", rmse)
	}
}

func TestALSRejectsOutOfRangeRatings(t *testing.T) {
	tbl := engine.NewMemTable("r", tasks.RatingSchema)
	tbl.MustInsert(engine.Tuple{engine.I64(99), engine.I64(0), engine.F64(1)})
	if _, err := NewALSRunner(tasks.NewLMF(2, 2, 1), tbl); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBatchGDOnCRFImproves(t *testing.T) {
	// The "Mallet-style" batch CRF trainer must also learn, just slower.
	const F, L = 5, 2
	rng := rand.New(rand.NewSource(7))
	tbl := engine.NewMemTable("seq", tasks.SeqSchema)
	for s := 0; s < 30; s++ {
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
	res := batch(t, tasks.NewCRF(F, L), tbl, 2, 25)
	if res.FinalLoss() >= res.Losses[0]/2 {
		t.Fatalf("batch CRF did not improve enough: %g -> %g", res.Losses[0], res.FinalLoss())
	}
}
