package tasks

import (
	"math"
	"math/rand"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// fdCheck verifies that Step moves the model by −α·∇Loss(w, tuple) by
// comparing against central finite differences of Loss. Tasks that do extra
// per-step work (projection, regularization) must be configured to disable
// it for this check.
func fdCheck(t *testing.T, task core.Task, tp engine.Tuple, w vector.Dense, tol float64) {
	t.Helper()
	const alpha = 1e-6
	before := w.Clone()
	task.Step(&core.DenseModel{W: w}, tp, alpha)
	stepDelta := vector.NewDense(len(w))
	for i := range w {
		stepDelta[i] = (w[i] - before[i]) / alpha // = −grad_i
	}
	const h = 1e-5
	for i := range before {
		wp := before.Clone()
		wm := before.Clone()
		wp[i] += h
		wm[i] -= h
		grad := (task.Loss(wp, tp) - task.Loss(wm, tp)) / (2 * h)
		if d := math.Abs(-grad - stepDelta[i]); d > tol*(1+math.Abs(grad)) {
			t.Fatalf("%s: grad mismatch at %d: fd=%.6g step=%.6g", task.Name(), i, -grad, stepDelta[i])
		}
	}
}

func randDense(rng *rand.Rand, d int) vector.Dense {
	w := vector.NewDense(d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

func TestLRGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	task := NewLR(5)
	tp := engine.Tuple{engine.I64(0), engine.DenseV(randDense(rng, 5)), engine.F64(1)}
	fdCheck(t, task, tp, randDense(rng, 5), 1e-4)
	tpNeg := engine.Tuple{engine.I64(0), engine.DenseV(randDense(rng, 5)), engine.F64(-1)}
	fdCheck(t, task, tpNeg, randDense(rng, 5), 1e-4)
}

func TestLRGradientSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	task := NewLR(8)
	x := vector.NewSparse([]int32{1, 4, 6}, []float64{0.5, -1.2, 2.0})
	tp := engine.Tuple{engine.I64(0), engine.SparseV(x), engine.F64(-1)}
	fdCheck(t, task, tp, randDense(rng, 8), 1e-4)
}

func TestSVMGradientBothSidesOfMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	task := NewSVM(4)
	x := randDense(rng, 4)
	tp := engine.Tuple{engine.I64(0), engine.DenseV(x), engine.F64(1)}
	// Violating w (margin < 1): start from a scaled-negative w.
	w := x.Clone()
	w.Scale(-1)
	fdCheck(t, task, tp, w, 1e-4)
	// Satisfying w (margin > 1): hinge is flat, step must be zero.
	w2 := x.Clone()
	w2.Scale(2 / vector.Dot(x, x))
	before := w2.Clone()
	task.Step(&core.DenseModel{W: w2}, tp, 0.1)
	if vector.Dist2(before, w2) != 0 {
		t.Fatal("SVM stepped on a margin-satisfying example")
	}
}

func TestLeastSquaresGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	task := NewLeastSquares(3)
	tp := engine.Tuple{engine.I64(0), engine.DenseV(randDense(rng, 3)), engine.F64(0.7)}
	fdCheck(t, task, tp, randDense(rng, 3), 1e-4)
}

func TestLMFGradient(t *testing.T) {
	task := NewLMF(3, 4, 2)
	rng := rand.New(rand.NewSource(5))
	tp := engine.Tuple{engine.I64(1), engine.I64(2), engine.F64(3.5)}
	fdCheck(t, task, tp, randDense(rng, task.Dim()), 1e-3)
}

func TestLMFGenericModelPathMatchesDense(t *testing.T) {
	task := NewLMF(3, 4, 2)
	rng := rand.New(rand.NewSource(6))
	w := randDense(rng, task.Dim())
	tp := engine.Tuple{engine.I64(2), engine.I64(0), engine.F64(-1.5)}
	dense := &core.DenseModel{W: w.Clone()}
	locked := core.NewLockedModel(task.Dim())
	for i := range w {
		locked.W[i] = w[i]
	}
	task.Step(dense, tp, 0.01)
	task.Step(locked, tp, 0.01)
	if d := vector.Dist2(dense.W, locked.Snapshot()); d > 1e-12 {
		t.Fatalf("generic path diverges from dense path by %g", d)
	}
}

func TestKalmanGradient(t *testing.T) {
	task := NewKalman(4, 2)
	rng := rand.New(rand.NewSource(7))
	for _, step := range []int{0, 2, 3} {
		tp := engine.Tuple{engine.I64(int64(step)), engine.DenseV(randDense(rng, 2))}
		fdCheck(t, task, tp, randDense(rng, task.Dim()), 1e-3)
	}
}

func TestPortfolioStepStaysOnSimplex(t *testing.T) {
	task := NewPortfolio(6)
	rng := rand.New(rand.NewSource(8))
	w := task.InitModel(0)
	m := &core.DenseModel{W: w}
	for i := 0; i < 50; i++ {
		tp := engine.Tuple{engine.I64(int64(i)), engine.DenseV(randDense(rng, 6))}
		task.Step(m, tp, 0.05)
		var sum float64
		for _, x := range m.W {
			if x < -1e-12 {
				t.Fatalf("negative weight %g after step %d", x, i)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %g after step %d", sum, i)
		}
	}
}

func TestPortfolioGenericModelProjection(t *testing.T) {
	task := NewPortfolio(4)
	lm := core.NewLockedModel(4)
	for i := 0; i < 4; i++ {
		lm.W[i] = 0.25
	}
	rng := rand.New(rand.NewSource(9))
	tp := engine.Tuple{engine.I64(0), engine.DenseV(randDense(rng, 4))}
	task.Step(lm, tp, 0.1)
	w := lm.Snapshot()
	var sum float64
	for _, x := range w {
		if x < -1e-12 {
			t.Fatalf("negative weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
}

// --- CRF ---

// tinySeq builds a 3-token sequence over 4 features with given labels.
func tinySeq(labels []int32) engine.Tuple {
	offsets := []int32{0, 2, 3, 5}
	feats := []int32{0, 1, 2, 1, 3}
	return engine.Tuple{engine.I64(0), engine.IntsV(offsets), engine.IntsV(feats), engine.IntsV(labels)}
}

// bruteLogZ enumerates all label sequences to compute log Z exactly.
func bruteLogZ(t *CRF, w vector.Dense, tp engine.Tuple) float64 {
	s := decodeSeq(tp)
	T, L := s.T(), t.L
	var scores []float64
	var rec func(tt int, prev int, acc float64)
	rec = func(tt int, prev int, acc float64) {
		if tt == T {
			scores = append(scores, acc)
			return
		}
		for y := 0; y < L; y++ {
			sc := acc
			for _, f := range s.tokenFeats(tt) {
				sc += w[t.emOff(int(f), y)]
			}
			if tt > 0 {
				sc += w[t.trOff(prev, y)]
			}
			rec(tt+1, y, sc)
		}
	}
	rec(0, -1, 0)
	return logSumExp(scores)
}

func TestCRFLogZMatchesBruteForce(t *testing.T) {
	task := NewCRF(4, 3)
	rng := rand.New(rand.NewSource(10))
	w := randDense(rng, task.Dim())
	tp := tinySeq([]int32{0, 2, 1})
	r := reader{w: w}
	logZ, _, _, _ := task.inference(r, w[task.trOff(0, 0):], decodeSeq(tp))
	want := bruteLogZ(task, w, tp)
	if math.Abs(logZ-want) > 1e-9 {
		t.Fatalf("logZ = %.9f, brute force = %.9f", logZ, want)
	}
}

func TestCRFLossNonNegative(t *testing.T) {
	task := NewCRF(4, 3)
	rng := rand.New(rand.NewSource(11))
	w := randDense(rng, task.Dim())
	for y0 := int32(0); y0 < 3; y0++ {
		tp := tinySeq([]int32{y0, 1, 2})
		if l := task.Loss(w, tp); l < -1e-9 {
			t.Fatalf("negative NLL %g", l)
		}
	}
}

func TestCRFGradient(t *testing.T) {
	task := NewCRF(4, 2)
	rng := rand.New(rand.NewSource(12))
	w := randDense(rng, task.Dim())
	w.Scale(0.3)
	tp := tinySeq([]int32{0, 1, 0})
	fdCheck(t, task, tp, w, 1e-3)
}

func TestCRFViterbiMatchesBruteForce(t *testing.T) {
	task := NewCRF(4, 3)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		w := randDense(rng, task.Dim())
		tp := tinySeq([]int32{0, 0, 0})
		got := task.Decode(w, tp)
		// Brute force best sequence.
		s := decodeSeq(tp)
		best := math.Inf(-1)
		var bestSeq []int32
		var rec func(tt int, prev int, acc float64, cur []int32)
		rec = func(tt int, prev int, acc float64, cur []int32) {
			if tt == s.T() {
				if acc > best {
					best = acc
					bestSeq = append([]int32(nil), cur...)
				}
				return
			}
			for y := 0; y < task.L; y++ {
				sc := acc
				for _, f := range s.tokenFeats(tt) {
					sc += w[task.emOff(int(f), y)]
				}
				if tt > 0 {
					sc += w[task.trOff(prev, y)]
				}
				rec(tt+1, y, sc, append(cur, int32(y)))
			}
		}
		rec(0, -1, 0, nil)
		for i := range got {
			if got[i] != bestSeq[i] {
				t.Fatalf("trial %d: viterbi %v, brute force %v", trial, got, bestSeq)
			}
		}
	}
}

func TestCRFEmptySequenceIsNoop(t *testing.T) {
	task := NewCRF(4, 2)
	tp := engine.Tuple{engine.I64(0), engine.IntsV([]int32{0}), engine.IntsV(nil), engine.IntsV(nil)}
	w := vector.NewDense(task.Dim())
	task.Step(&core.DenseModel{W: w}, tp, 0.1)
	if w.Norm2() != 0 {
		t.Fatal("empty sequence changed the model")
	}
	if task.Loss(w, tp) != 0 {
		t.Fatal("empty sequence has nonzero loss")
	}
	if task.Decode(w, tp) != nil {
		t.Fatal("empty sequence decoded to labels")
	}
}

// --- end-to-end sanity: each task actually learns on small data ---

func trainLoss(t *testing.T, task core.Task, tbl *engine.Table, a0 float64, epochs int) (first, last float64) {
	t.Helper()
	tr := &core.Trainer{Task: task, Step: core.DefaultStep(a0), MaxEpochs: epochs, Seed: 42}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return res.Losses[0], res.FinalLoss()
}

func TestLRLearnsSeparableData(t *testing.T) {
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		y := float64(1)
		off := 2.0
		if i%2 == 0 {
			y, off = -1, -2.0
		}
		x := vector.Dense{off + 0.3*rng.NormFloat64(), rng.NormFloat64()}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	first, last := trainLoss(t, NewLR(2), tbl, 0.5, 30)
	if last >= first/4 {
		t.Fatalf("LR failed to learn: first=%g last=%g", first, last)
	}
	// The learned model must separate the data.
	task := NewLR(2)
	tr := &core.Trainer{Task: task, Step: core.DefaultStep(0.5), MaxEpochs: 30, Seed: 42}
	res, _ := tr.Run(tbl)
	correct := 0
	tbl.Scan(func(tp engine.Tuple) error {
		p := task.Predict(res.Model, tp[ColVec])
		if (p > 0.5) == (tp[ColLabel].Float > 0) {
			correct++
		}
		return nil
	})
	if correct < 190 {
		t.Fatalf("LR accuracy %d/200", correct)
	}
}

func TestSVMLearnsSeparableData(t *testing.T) {
	tbl := engine.NewMemTable("d", DenseExampleSchema)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		y := float64(1)
		off := 2.0
		if i%2 == 0 {
			y, off = -1, -2.0
		}
		x := vector.Dense{off + 0.3*rng.NormFloat64(), rng.NormFloat64()}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	first, last := trainLoss(t, NewSVM(2), tbl, 0.2, 30)
	if last > first/4+1e-9 {
		t.Fatalf("SVM failed to learn: first=%g last=%g", first, last)
	}
}

func TestLMFRecoversLowRankMatrix(t *testing.T) {
	const rows, cols, rank = 20, 15, 2
	rng := rand.New(rand.NewSource(22))
	L := make([]vector.Dense, rows)
	R := make([]vector.Dense, cols)
	for i := range L {
		L[i] = randDense(rng, rank)
	}
	for j := range R {
		R[j] = randDense(rng, rank)
	}
	tbl := engine.NewMemTable("r", RatingSchema)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.6 {
				tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.I64(int64(j)), engine.F64(vector.Dot(L[i], R[j]))})
			}
		}
	}
	task := NewLMF(rows, cols, rank)
	tr := &core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.05, Rho: 0.99}, MaxEpochs: 150, Seed: 7,
		Order: shuffleOnce{}}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	rmse := math.Sqrt(res.FinalLoss() / float64(tbl.NumRows()))
	if rmse > 0.15 {
		t.Fatalf("LMF rmse = %g (first loss %g, last %g)", rmse, res.Losses[0], res.FinalLoss())
	}
}

// shuffleOnce is a tiny local strategy to avoid importing internal/ordering
// (which would create an import cycle in tests).
type shuffleOnce struct{}

func (shuffleOnce) Name() string { return "once" }
func (shuffleOnce) Prepare(tbl *engine.Table, epoch int, rng *rand.Rand) error {
	if epoch == 0 {
		return tbl.Shuffle(rng)
	}
	return nil
}

func TestKalmanSmoothsNoisySeries(t *testing.T) {
	const T, d = 50, 1
	rng := rand.New(rand.NewSource(23))
	tbl := engine.NewMemTable("s", SeriesSchema)
	truth := make([]float64, T)
	for i := 0; i < T; i++ {
		truth[i] = math.Sin(float64(i) / 5)
		y := truth[i] + 0.3*rng.NormFloat64()
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense{y})})
	}
	task := NewKalman(T, d)
	task.Rho = 4
	tr := &core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.05, Rho: 0.995}, MaxEpochs: 200, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := 0; i < T; i++ {
		d := res.Model[i] - truth[i]
		mse += d * d
	}
	mse /= T
	if mse > 0.05 {
		t.Fatalf("Kalman mse vs truth = %g", mse)
	}
}

func TestCRFLearnsSyntheticTagging(t *testing.T) {
	// Feature f strongly indicates label f%2; transitions discourage staying.
	const F, L = 6, 2
	rng := rand.New(rand.NewSource(24))
	tbl := engine.NewMemTable("seq", SeqSchema)
	for s := 0; s < 60; s++ {
		T := 4 + rng.Intn(5)
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
	tr := &core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.2, Rho: 0.95}, MaxEpochs: 30, Seed: 3}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() >= res.Losses[0]/5 {
		t.Fatalf("CRF failed to learn: first=%g last=%g", res.Losses[0], res.FinalLoss())
	}
	// Decoding accuracy.
	var tot, correct int
	tbl.Scan(func(tp engine.Tuple) error {
		got := task.Decode(res.Model, tp)
		want := tp[3].Ints
		for i := range want {
			tot++
			if got[i] == want[i] {
				correct++
			}
		}
		return nil
	})
	if float64(correct)/float64(tot) < 0.95 {
		t.Fatalf("CRF tagging accuracy %d/%d", correct, tot)
	}
}
