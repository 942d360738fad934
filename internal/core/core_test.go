package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// --- proximal operators ---

func TestProxL1SoftThreshold(t *testing.T) {
	w := vector.Dense{3, -3, 0.5, -0.5, 0}
	ProxL1(w, 1)
	want := vector.Dense{2, -2, 0, 0, 0}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("ProxL1 = %v, want %v", w, want)
		}
	}
}

func TestProxL1NoopOnZeroAlpha(t *testing.T) {
	w := vector.Dense{1, 2}
	ProxL1(w, 0)
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("ProxL1(0) changed w")
	}
}

func TestProxL2Shrinks(t *testing.T) {
	w := vector.Dense{2, -4}
	ProxL2(w, 1)
	if w[0] != 1 || w[1] != -2 {
		t.Fatalf("ProxL2 = %v", w)
	}
}

func TestProjectBall2(t *testing.T) {
	w := vector.Dense{3, 4}
	ProjectBall2(w, 1)
	if math.Abs(w.Norm2()-1) > 1e-12 {
		t.Fatalf("norm after projection = %v", w.Norm2())
	}
	w2 := vector.Dense{0.1, 0.1}
	before := w2.Clone()
	ProjectBall2(w2, 1)
	if vector.Dist2(before, w2) != 0 {
		t.Fatal("projection moved an interior point")
	}
}

func TestProjectSimplexBasics(t *testing.T) {
	w := vector.Dense{0.5, 0.5}
	ProjectSimplex(w)
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Fatalf("simplex point moved: %v", w)
	}
	w2 := vector.Dense{2, 0}
	ProjectSimplex(w2)
	if math.Abs(w2[0]-1) > 1e-12 || w2[1] != 0 {
		t.Fatalf("projection of (2,0) = %v, want (1,0)", w2)
	}
	w3 := vector.Dense{-5, -5, -5}
	ProjectSimplex(w3)
	var sum float64
	for _, x := range w3 {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("projection of all-negative sums to %v", sum)
	}
}

// Property: ProjectSimplex output is feasible and is the closest feasible
// point (verified against a dense grid search in 2-D).
func TestQuickProjectSimplexFeasible(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		w := make(vector.Dense, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			w[i] = math.Mod(x, 100)
		}
		ProjectSimplex(w)
		var sum float64
		for _, x := range w {
			if x < -1e-9 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectSimplexIsNearestPoint2D(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		p := vector.Dense{4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
		w := p.Clone()
		ProjectSimplex(w)
		// Grid search the 2-D simplex {(t, 1-t)}.
		best := math.Inf(1)
		for i := 0; i <= 2000; i++ {
			tt := float64(i) / 2000
			d := (p[0]-tt)*(p[0]-tt) + (p[1]-(1-tt))*(p[1]-(1-tt))
			if d < best {
				best = d
			}
		}
		got := (p[0]-w[0])*(p[0]-w[0]) + (p[1]-w[1])*(p[1]-w[1])
		if got > best+1e-5 {
			t.Fatalf("trial %d: projection dist² %g > grid best %g (p=%v w=%v)", trial, got, best, p, w)
		}
	}
}

// --- step rules ---

func TestStepRules(t *testing.T) {
	c := ConstantStep{A: 0.3}
	if c.Alpha(0) != 0.3 || c.Alpha(100) != 0.3 {
		t.Fatal("ConstantStep not constant")
	}
	d := DiminishingStep{A0: 1}
	if d.Alpha(0) != 1 || d.Alpha(1) != 0.5 || d.Alpha(3) != 0.25 {
		t.Fatalf("DiminishingStep: %v %v %v", d.Alpha(0), d.Alpha(1), d.Alpha(3))
	}
	dp := DiminishingStep{A0: 1, P: 0.5}
	if math.Abs(dp.Alpha(3)-0.5) > 1e-12 {
		t.Fatalf("DiminishingStep p=0.5: %v", dp.Alpha(3))
	}
	g := GeometricStep{A0: 2, Rho: 0.5}
	if g.Alpha(0) != 2 || g.Alpha(2) != 0.5 {
		t.Fatalf("GeometricStep: %v %v", g.Alpha(0), g.Alpha(2))
	}
	if DefaultStep(1).Alpha(0) != 1 {
		t.Fatal("DefaultStep alpha0")
	}
}

func TestStepRulesDecreaseMonotonically(t *testing.T) {
	rules := []StepRule{DiminishingStep{A0: 1}, DiminishingStep{A0: 1, P: 0.7}, GeometricStep{A0: 1, Rho: 0.9}}
	for _, r := range rules {
		prev := math.Inf(1)
		for e := 0; e < 50; e++ {
			a := r.Alpha(e)
			if a <= 0 || a > prev {
				t.Fatalf("%T not positive decreasing at epoch %d", r, e)
			}
			prev = a
		}
	}
}

// --- models ---

func TestDenseModel(t *testing.T) {
	m := NewDenseModel(3)
	m.Add(1, 2.5)
	if m.Get(1) != 2.5 || m.Dim() != 3 {
		t.Fatal("DenseModel basic ops")
	}
	s := m.Snapshot()
	s[1] = 0
	if m.Get(1) != 2.5 {
		t.Fatal("Snapshot must copy")
	}
}

func TestLockedModel(t *testing.T) {
	m := NewLockedModel(2)
	m.Add(0, 1)
	if m.Get(0) != 1 {
		t.Fatal("LockedModel Add/Get")
	}
	m.LockStep(func(w vector.Dense) { w[1] = 9 })
	if m.Get(1) != 9 {
		t.Fatal("LockStep must mutate")
	}
	if m.Dim() != 2 {
		t.Fatal("Dim")
	}
}

// --- IGD aggregate & trainer ---

// meanTask is a 1-D least-squares-to-labels task: min ½Σ(w−y_i)², whose
// optimum is the label mean — Example 2.1 of the paper.
type meanTask struct{}

func (meanTask) Name() string { return "mean" }
func (meanTask) Dim() int     { return 1 }
func (meanTask) Step(m Model, t engine.Tuple, alpha float64) {
	m.Add(0, -alpha*(m.Get(0)-t[1].Float))
}
func (meanTask) Loss(w vector.Dense, t engine.Tuple) float64 {
	d := w[0] - t[1].Float
	return 0.5 * d * d
}

func meanSchema() engine.Schema {
	return engine.Schema{{Name: "id", Type: engine.TInt64}, {Name: "y", Type: engine.TFloat64}}
}

func meanTable(vals []float64) *engine.Table {
	tbl := engine.NewMemTable("m", meanSchema())
	for i, v := range vals {
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.F64(v)})
	}
	return tbl
}

func TestTrainerConvergesToMean(t *testing.T) {
	tbl := meanTable([]float64{1, 2, 3, 4, 5, 6})
	tr := &Trainer{Task: meanTask{}, Step: DiminishingStep{A0: 0.5}, MaxEpochs: 200, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Model[0]-3.5) > 0.05 {
		t.Fatalf("converged to %v, want 3.5", res.Model[0])
	}
	if res.Epochs != 200 || len(res.Losses) != 200 {
		t.Fatalf("epochs=%d losses=%d", res.Epochs, len(res.Losses))
	}
}

func TestTrainerRelTolStopsEarly(t *testing.T) {
	tbl := meanTable([]float64{1, 1, 1, 1})
	tr := &Trainer{Task: meanTask{}, Step: ConstantStep{A: 0.5}, MaxEpochs: 500, RelTol: 1e-6, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Epochs >= 500 {
		t.Fatalf("expected early convergence, got %d epochs (converged=%v)", res.Epochs, res.Converged)
	}
}

func TestTrainerTargetLossStops(t *testing.T) {
	tbl := meanTable([]float64{2, 2, 2})
	tr := &Trainer{Task: meanTask{}, Step: ConstantStep{A: 0.5}, MaxEpochs: 500, TargetLoss: 1e-4, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected TargetLoss convergence")
	}
	if res.FinalLoss() > 1e-4 {
		t.Fatalf("final loss %g above target", res.FinalLoss())
	}
}

func TestTrainerSkipLoss(t *testing.T) {
	tbl := meanTable([]float64{1, 2})
	tr := &Trainer{Task: meanTask{}, Step: ConstantStep{A: 0.1}, MaxEpochs: 5, SkipLoss: true, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 0 || res.Epochs != 5 {
		t.Fatalf("SkipLoss run recorded losses=%d epochs=%d", len(res.Losses), res.Epochs)
	}
	if math.IsNaN(res.FinalLoss()) == false {
		t.Fatal("FinalLoss should be NaN when no losses recorded")
	}
}

func TestTrainerParallelPlanMatchesShapeOfSequential(t *testing.T) {
	// Model averaging changes the trajectory but must still converge to the
	// same optimum on a convex problem.
	vals := make([]float64, 400)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = 3 + rng.NormFloat64()
	}
	tbl := meanTable(vals)
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))

	for _, segs := range []int{1, 4} {
		tr := &Trainer{Task: meanTask{}, Step: DiminishingStep{A0: 0.5}, MaxEpochs: 100, Seed: 1,
			Profile: engine.Profile{Segments: segs}}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Model[0]-mean) > 0.1 {
			t.Fatalf("segments=%d: model %v, want %v", segs, res.Model[0], mean)
		}
	}
}

func TestIGDAggregateMergeWeightsBySteps(t *testing.T) {
	agg := &IGDAggregate{Task: meanTask{}, Alpha: 0, Init: vector.Dense{0}}
	a := &igdState{w: vector.Dense{1}, steps: 3}
	b := &igdState{w: vector.Dense{5}, steps: 1}
	got := agg.Merge(a, b).(*igdState)
	if math.Abs(got.w[0]-2) > 1e-12 { // (3·1 + 1·5)/4
		t.Fatalf("merge = %v, want 2", got.w[0])
	}
	if got.steps != 4 {
		t.Fatalf("merged steps = %d", got.steps)
	}
}

func TestIGDAggregateMergeEmptyStates(t *testing.T) {
	agg := &IGDAggregate{Task: meanTask{}, Init: vector.Dense{0}}
	a := &igdState{w: vector.Dense{0}, steps: 0}
	b := &igdState{w: vector.Dense{0}, steps: 0}
	got := agg.Merge(a, b).(*igdState)
	if got.steps != 0 {
		t.Fatal("merging empty states should stay empty")
	}
}

func TestIGDStateCopy(t *testing.T) {
	s := &igdState{w: vector.Dense{1, 2}, steps: 5}
	c := s.CopyState().(*igdState)
	c.w[0] = 99
	if s.w[0] != 1 {
		t.Fatal("CopyState must deep copy")
	}
}

// TestAllocBudgetTransition: the IGD transition — the body of every
// sequential and pure-UDA epoch — allocates nothing: the Model wrapper over
// the state's vector is built once, by Initialize and CopyState, not per
// tuple.
func TestAllocBudgetTransition(t *testing.T) {
	agg := &IGDAggregate{Task: meanTask{}, Alpha: 0.1, Init: vector.Dense{0}, PiggybackLoss: true}
	tp := engine.Tuple{engine.I64(0), engine.F64(3)}
	for name, s := range map[string]engine.State{
		"Initialize": agg.Initialize(),
		"CopyState":  agg.Initialize().(*igdState).CopyState(),
	} {
		st := s.(*igdState)
		if &st.model.W[0] != &st.w[0] {
			t.Fatalf("%s: the state's model does not wrap the state's own vector", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { s = agg.Transition(s, tp) }); allocs != 0 {
			t.Errorf("%s: Transition allocates %.1f objects per tuple, want 0", name, allocs)
		}
		if st.steps == 0 || st.w[0] == 0 {
			t.Fatalf("%s: transitions did not step the state", name)
		}
	}
}

func TestInitialModelUsesInitializer(t *testing.T) {
	if w := InitialModel(meanTask{}, 0); len(w) != 1 || w[0] != 0 {
		t.Fatal("default init should be zeros")
	}
}

func TestTotalLossMatchesManualSum(t *testing.T) {
	tbl := meanTable([]float64{1, 3})
	w := vector.Dense{2}
	got, err := TotalLoss(meanTask{}, w, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-12 { // ½(1)² + ½(1)²
		t.Fatalf("TotalLoss = %v, want 1", got)
	}
}

// Property: IGD on the CA-TX least-squares problem converges for any data
// sign pattern under a diminishing step (|w| bounded and shrinking).
func TestQuickMeanIGDStable(t *testing.T) {
	f := func(raw []bool) bool {
		if len(raw) < 4 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, b := range raw {
			if b {
				vals[i] = 1
			} else {
				vals[i] = -1
			}
		}
		tbl := meanTable(vals)
		tr := &Trainer{Task: meanTask{}, Step: DiminishingStep{A0: 0.5}, MaxEpochs: 50, Seed: 3, SkipLoss: true}
		res, err := tr.Run(tbl)
		if err != nil {
			return false
		}
		return math.Abs(res.Model[0]) <= 1.0+1e-9 // stays in the data hull
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
