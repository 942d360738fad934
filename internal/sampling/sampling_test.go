package sampling

import (
	"math"
	"math/rand"
	"testing"

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

// TestSampleOfCachedTableIsRetainable: over a cached table the scan reuses
// one tuple header, so the reservoir must copy what it keeps — a sample has
// to read its own rows' values after later scans and a view permutation
// have run over the same slabs.
func TestSampleOfCachedTableIsRetainable(t *testing.T) {
	tbl := idVecTable(300)
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
	checkSample(t, sample, 25, view.Scan, tbl.Rows().Scan)
}

// TestSampleOfUncachedTableIsRetainable is the uncached twin of the test
// above: with no cache, SampleTable reads the table's pages through one
// decode scratch, so a kept row whose cells still pointed into it would
// read whatever row the scratch held last.
func TestSampleOfUncachedTableIsRetainable(t *testing.T) {
	tbl := idVecTable(300)
	sample, err := SampleTable(tbl, 25, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CachedRows() != nil {
		t.Fatal("sampling built a cache")
	}
	checkSample(t, sample, 25, tbl.Scan, tbl.Rows().Scan)
}

// idVecTable holds n rows (i, [i, 2i]).
func idVecTable(n int) *engine.Table {
	tbl := engine.NewMemTable("t", engine.Schema{{Name: "id", Type: engine.TInt64}, {Name: "vec", Type: engine.TDenseVec}})
	for i := 0; i < n; i++ {
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(vector.Dense{float64(i), float64(2 * i)})})
	}
	return tbl
}

// checkSample runs the later scans, then checks that the sample of an
// idVecTable holds want distinct rows that each still read their own cells.
func checkSample(t *testing.T, sample []engine.Tuple, want int, later ...func(func(engine.Tuple) error) error) {
	t.Helper()
	for _, scan := range later {
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
	if len(seen) != want {
		t.Fatalf("sample holds %d distinct rows, want %d", len(seen), want)
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
	r, err := NewMRSRunner(task, tbl, buf, 1)
	if err != nil {
		return nil, err
	}
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

// TestMRSTrainsAtEveryBuffer: MRS learns at every buffer size, up to and
// past the table's row count, where the I/O side drops nothing and each
// pass is one sweep of the buffer, and a rerun repeats it bit for bit. It
// beats the reservoir plan while the buffer holds a fraction of the table.
// From the row count on it may trail that plan by up to 10 %: MRS's first
// pass has an empty memory buffer, so over 10 passes it takes 9 sweeps of
// the table against the reservoir plan's 10.
func TestMRSTrainsAtEveryBuffer(t *testing.T) {
	const passes = 10
	for _, seed := range []int64{1, 3} {
		tbl, task := lrTable(t, 400, seed)
		for _, buf := range []int{40, 200, 399, 400, 800} {
			sub, err := trainReservoir(tbl, task, core.DefaultStep(0.3), passes, buf)
			if err != nil {
				t.Fatal(err)
			}
			mrs, err := trainMRS(tbl, task, core.DefaultStep(0.3), passes, buf)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d buf %d: MRS %.4g, reservoir %.4g", seed, buf, mrs.FinalLoss(), sub.FinalLoss())
			if m, s := mrs.FinalLoss(), sub.FinalLoss(); m > 1.10*s || (buf <= 200 && m >= s) {
				t.Errorf("seed %d buf %d: MRS final loss %g against reservoir's %g", seed, buf, m, s)
			}
			again, err := trainMRS(tbl, task, core.DefaultStep(0.3), passes, buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range mrs.Model {
				if math.Float64bits(mrs.Model[i]) != math.Float64bits(again.Model[i]) {
					t.Fatalf("seed %d buf %d: rerun's model %v differs from %v", seed, buf, again.Model, mrs.Model)
				}
			}
		}
	}
}
