package sampling

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

func TestReservoirFillsToCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReservoir(5, rng)
	for i := 0; i < 3; i++ {
		if d := r.Offer(engine.Tuple{engine.I64(int64(i))}); d != nil {
			t.Fatal("dropped while filling")
		}
	}
	if r.Len() != 3 || r.seen != 3 {
		t.Fatalf("Len=%d seen=%d", r.Len(), r.seen)
	}
}

func TestReservoirDropsExactlyOnePerOfferWhenFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewReservoir(4, rng)
	for i := 0; i < 4; i++ {
		r.Offer(engine.Tuple{engine.I64(int64(i))})
	}
	for i := 4; i < 100; i++ {
		d := r.Offer(engine.Tuple{engine.I64(int64(i))})
		if d == nil {
			t.Fatalf("offer %d dropped nothing though reservoir is full", i)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d after overflow", r.Len())
	}
}

// Statistical check: every item has (approximately) equal probability of
// ending in the reservoir.
func TestReservoirUniformity(t *testing.T) {
	const n, capN, trials = 20, 5, 6000
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(3))
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(capN, rng)
		for i := 0; i < n; i++ {
			r.Offer(engine.Tuple{engine.I64(int64(i))})
		}
		for _, tp := range r.Items() {
			counts[tp[0].Int]++
		}
	}
	want := float64(trials) * capN / n // expected inclusions per item
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Fatalf("item %d sampled %d times, want ≈%.0f (±15%%)", i, c, want)
		}
	}
}

func TestReservoirMinimumCapacity(t *testing.T) {
	r := NewReservoir(0, rand.New(rand.NewSource(4)))
	r.Offer(engine.Tuple{engine.I64(1)})
	if r.Len() != 1 {
		t.Fatal("cap<1 should clamp to 1")
	}
}

func TestSampleTable(t *testing.T) {
	tbl := engine.NewMemTable("t", engine.Schema{{Name: "id", Type: engine.TInt64}})
	for i := 0; i < 100; i++ {
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i))})
	}
	got, err := SampleTable(tbl, 10, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("sample size %d", len(got))
	}
	seen := map[int64]bool{}
	for _, tp := range got {
		if seen[tp[0].Int] {
			t.Fatal("duplicate in without-replacement sample")
		}
		seen[tp[0].Int] = true
	}
}

// TestSampleOfCachedTableIsRetainable: over a cached table the stable scan
// reuses one tuple header, so the reservoir must copy what it keeps — a
// sample has to read its own rows' values after later scans and a view
// permutation have run over the same slabs.
func TestSampleOfCachedTableIsRetainable(t *testing.T) {
	tbl := engine.NewMemTable("t", engine.Schema{{Name: "id", Type: engine.TInt64}, {Name: "vec", Type: engine.TDenseVec}})
	for i := 0; i < 300; i++ {
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense{float64(i), float64(2 * i)})})
	}
	mat, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sample, err := SampleTable(tbl, 25, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	view := mat.View()
	view.Permute(rand.New(rand.NewSource(6)))
	for _, scan := range []func(func(engine.Tuple) error) error{view.Scan, tbl.ScanStable} {
		if err := scan(func(engine.Tuple) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]bool{}
	for _, tp := range sample {
		id := tp[0].Int
		if seen[id] || tp[1].Dense[0] != float64(id) || tp[1].Dense[1] != float64(2*id) {
			t.Fatalf("sampled row %d reads %v (duplicate: %v)", id, tp[1].Dense, seen[id])
		}
		seen[id] = true
	}
	if len(seen) != 25 {
		t.Fatalf("sample holds %d distinct rows, want 25", len(seen))
	}
}

func lrTable(t *testing.T, n int, seed int64) (*engine.Table, *tasks.LR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := engine.NewMemTable("d", tasks.DenseExampleSchema)
	for i := 0; i < n; i++ {
		y, off := 1.0, 1.5
		if i < n/2 {
			y, off = -1.0, -1.5
		}
		x := vector.Dense{off + 0.5*rng.NormFloat64(), rng.NormFloat64()}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	// Clustered by label: the pathological storage order.
	return tbl, tasks.NewLR(2)
}

// trainReservoir and trainMRS run a sampling plan the way a statement
// does: build the runner, hand it to core.Drive.
func trainReservoir(tbl *engine.Table, task core.Task, step core.StepRule, epochs, buf int) (*core.Result, error) {
	r, err := NewReservoirRunner(task, tbl, buf, 1)
	if err != nil {
		return nil, err
	}
	return core.Drive(r, core.LoopConfig{Task: task, Step: step, MaxEpochs: epochs, Seed: 1})
}

func trainMRS(tbl *engine.Table, task core.Task, step core.StepRule, passes, buf int) (*core.Result, error) {
	r, stop, err := NewMRSRunner(task, tbl, buf, 1)
	if err != nil {
		return nil, err
	}
	defer stop()
	return core.Drive(r, core.LoopConfig{Task: task, Step: step, MaxEpochs: passes, Seed: 1})
}

func TestReservoirRunnerLearns(t *testing.T) {
	tbl, task := lrTable(t, 400, 1)
	res, err := trainReservoir(tbl, task, core.DefaultStep(0.3), 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() >= res.Losses[0] {
		t.Fatalf("subsampling did not improve: %g -> %g", res.Losses[0], res.FinalLoss())
	}
}

// TestSamplingPlansValidate: a zero buffer is refused at construction, and
// the loop's own checks — which the sampling trainers used to skip, a nil
// Step panicking inside the first epoch — now come from core.Drive.
func TestSamplingPlansValidate(t *testing.T) {
	tbl, task := lrTable(t, 10, 2)
	if _, err := trainReservoir(tbl, task, core.ConstantStep{A: 1}, 1, 0); err == nil {
		t.Fatal("reservoir: BufCap=0 must error")
	}
	if _, err := trainMRS(tbl, task, core.ConstantStep{A: 1}, 1, 0); err == nil {
		t.Fatal("mrs: BufCap=0 must error")
	}
	for name, train := range map[string]func(*engine.Table, core.Task, core.StepRule, int, int) (*core.Result, error){
		"reservoir": trainReservoir, "mrs": trainMRS,
	} {
		if _, err := train(tbl, task, nil, 1, 5); err == nil {
			t.Fatalf("%s: nil Step must error, not panic", name)
		}
		if _, err := train(tbl, task, core.ConstantStep{A: 1}, 0, 5); err == nil {
			t.Fatalf("%s: MaxEpochs=0 must error", name)
		}
	}
}

func TestMRSRunnerLearns(t *testing.T) {
	tbl, task := lrTable(t, 400, 3)
	res, err := trainMRS(tbl, task, core.DefaultStep(0.3), 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() >= res.Losses[0] {
		t.Fatalf("MRS did not improve: %g -> %g", res.Losses[0], res.FinalLoss())
	}
	if res.Epochs != 10 || len(res.Losses) != 10 {
		t.Fatalf("epochs=%d losses=%d", res.Epochs, len(res.Losses))
	}
}

func TestMRSBeatsSubsamplingAtEqualBudget(t *testing.T) {
	// The paper's Figure 10: MRS uses the dropped tuples as well, so at the
	// same buffer size it reaches a lower objective in the same number of
	// passes over the data.
	tbl, task := lrTable(t, 800, 4)
	const buf, passes = 80, 8
	sub, err := trainReservoir(tbl, task, core.DefaultStep(0.3), passes, buf)
	if err != nil {
		t.Fatal(err)
	}
	mrs, err := trainMRS(tbl, task, core.DefaultStep(0.3), passes, buf)
	if err != nil {
		t.Fatal(err)
	}
	if mrs.FinalLoss() >= sub.FinalLoss() {
		t.Fatalf("MRS (%g) should beat Subsampling (%g)", mrs.FinalLoss(), sub.FinalLoss())
	}
}

// memPanicTask is LR whose gradient step panics. Under MRS with a buffer
// that holds the whole table the I/O worker drops no tuple, so only the
// Memory worker ever steps; Loss, which Drive calls on the I/O side after
// every epoch, waits for that first step, so the failure lands mid-run.
type memPanicTask struct {
	*tasks.LR
	once    sync.Once
	stepped chan struct{}
}

func (p *memPanicTask) Step(core.Model, engine.Tuple, float64) {
	p.once.Do(func() { close(p.stepped) })
	panic("injected memory worker panic")
}

func (p *memPanicTask) Loss(w vector.Dense, tp engine.Tuple) float64 {
	select {
	case <-p.stepped:
	case <-time.After(10 * time.Second):
	}
	return p.LR.Loss(w, tp)
}

// TestMRSMemoryWorkerPanicFailsRun: a panic in the Memory worker's step
// fails the training run with the panic, and the stop func returns it
// instead of the process dying or stop waiting on a dead worker.
func TestMRSMemoryWorkerPanicFailsRun(t *testing.T) {
	tbl, lr := lrTable(t, 50, 3)
	task := &memPanicTask{LR: lr, stepped: make(chan struct{})}
	r, stop, err := NewMRSRunner(task, tbl, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := core.Drive(r, core.LoopConfig{Task: task, Step: core.ConstantStep{A: 0.1}, MaxEpochs: 4, Seed: 1})
	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	var stopErr error
	select {
	case stopErr = <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return after the Memory worker panicked")
	}
	if stopErr == nil || !strings.Contains(stopErr.Error(), "panicked") {
		t.Fatalf("stop must return the Memory worker's panic: %v", stopErr)
	}
	if runErr != nil && !strings.Contains(runErr.Error(), "panicked") {
		t.Fatalf("run failed with something other than the panic: %v", runErr)
	}
}
