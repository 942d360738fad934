package parallel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

func TestAtomicModelBasics(t *testing.T) {
	m := NewAtomicModel(3, true)
	m.SetFrom(vector.Dense{1, 2, 3})
	if m.Get(1) != 2 || m.Dim() != 3 {
		t.Fatal("SetFrom/Get")
	}
	m.Add(1, 0.5)
	if m.Get(1) != 2.5 {
		t.Fatal("Add")
	}
	s := m.Snapshot()
	if s[0] != 1 || s[1] != 2.5 || s[2] != 3 {
		t.Fatalf("Snapshot = %v", s)
	}
}

func TestAtomicModelCASLosesNoUpdates(t *testing.T) {
	m := NewAtomicModel(1, true)
	const G, N = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				m.AddCAS(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Get(0); got != G*N {
		t.Fatalf("CAS lost updates: %v != %v", got, G*N)
	}
}

func TestAtomicModelRacyMayLoseButStaysSane(t *testing.T) {
	m := NewAtomicModel(1, false)
	const G, N = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				m.AddRacy(0, 1)
			}
		}()
	}
	wg.Wait()
	got := m.Get(0)
	// Lost updates are allowed, but the value must be a plausible count:
	// positive, at most the true total, and not torn garbage.
	if got <= 0 || got > G*N || got != math.Trunc(got) {
		t.Fatalf("NoLock result implausible: %v", got)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{PureUDA, NoLock, Lock, AIG} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
	if Mode(99).String() != "Mode(99)" {
		t.Fatal("unknown mode string")
	}
}

// buildLRTable makes a linearly separable dense dataset.
func buildLRTable(t *testing.T, n, d int, seed int64) (*engine.Table, *tasks.LR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := engine.NewMemTable("d", tasks.DenseExampleSchema)
	truth := make(vector.Dense, d)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		x := make(vector.Dense, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := float64(1)
		if vector.Dot(truth, x) < 0 {
			y = -1
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	return tbl, tasks.NewLR(d)
}

func TestAllModesConvergeOnLR(t *testing.T) {
	tbl, task := buildLRTable(t, 500, 8, 1)
	base, err := (&core.Trainer{Task: task, Step: core.DefaultStep(0.3), MaxEpochs: 20, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{PureUDA, NoLock, Lock, AIG} {
		tr := &Trainer{Task: task, Step: core.DefaultStep(0.3), MaxEpochs: 20, Workers: 4, Mode: mode, Seed: 1}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Every scheme must reach a loss in the same ballpark as sequential
		// (model averaging is worse per epoch but not catastrophically).
		limit := base.FinalLoss()*3 + 10
		if res.FinalLoss() > limit {
			t.Fatalf("%v: final loss %g vs sequential %g", mode, res.FinalLoss(), base.FinalLoss())
		}
	}
}

func TestPureUDAWorseThanSharedMemoryPerEpoch(t *testing.T) {
	// The paper's Figure 9(A): with few epochs, model averaging trails the
	// shared-memory schemes in objective value. Use a harder dataset so the
	// gap is visible.
	tbl, task := buildLRTable(t, 1000, 16, 2)
	run := func(mode Mode) float64 {
		tr := &Trainer{Task: task, Step: core.ConstantStep{A: 0.2}, MaxEpochs: 2, Workers: 8, Mode: mode, Seed: 2}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res.FinalLoss()
	}
	avg := run(PureUDA)
	nolock := run(NoLock)
	if nolock >= avg {
		t.Fatalf("expected NoLock (%g) < PureUDA (%g) after 2 epochs", nolock, avg)
	}
}

func TestTrainerRejectsUnknownMode(t *testing.T) {
	tbl, task := buildLRTable(t, 10, 2, 3)
	if _, err := (&Trainer{Task: task, Step: core.ConstantStep{A: 1}, MaxEpochs: 1, Mode: Mode(42)}).Run(tbl); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestTrainerTargetLossStops(t *testing.T) {
	tbl, task := buildLRTable(t, 300, 4, 5)
	tr := &Trainer{Task: task, Step: core.DefaultStep(0.5), MaxEpochs: 100, Workers: 4, Mode: NoLock,
		TargetLoss: 80, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Epochs >= 100 {
		t.Fatalf("expected early stop, got %d epochs", res.Epochs)
	}
}

func TestLockModeMatchesSequentialWithOneWorker(t *testing.T) {
	tbl, task := buildLRTable(t, 200, 4, 6)
	seq, err := (&core.Trainer{Task: task, Step: core.ConstantStep{A: 0.1}, MaxEpochs: 3, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Trainer{Task: task, Step: core.ConstantStep{A: 0.1}, MaxEpochs: 3, Workers: 1, Mode: Lock, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d := vector.Dist2(seq.Model, par.Model); d > 1e-9 {
		t.Fatalf("1-worker Lock diverges from sequential by %g", d)
	}
}

func TestAIGModeMatchesSequentialWithOneWorker(t *testing.T) {
	tbl, task := buildLRTable(t, 200, 4, 7)
	seq, err := (&core.Trainer{Task: task, Step: core.ConstantStep{A: 0.1}, MaxEpochs: 3, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Trainer{Task: task, Step: core.ConstantStep{A: 0.1}, MaxEpochs: 3, Workers: 1, Mode: AIG, Seed: 1}).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d := vector.Dist2(seq.Model, par.Model); d > 1e-9 {
		t.Fatalf("1-worker AIG diverges from sequential by %g", d)
	}
}
