package parallel

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// shardedRun is the in-process sharded plan exactly as a WITH shards=K
// statement runs it — partition the table, build the sharded epoch, hand
// it to core.Drive — behind a struct literal so the suites below read as
// one plan description per run.
type shardedRun struct {
	Task      core.Task
	Step      core.StepRule
	MaxEpochs int
	Shards    int
	Strategy  engine.ShardStrategy
	Order     core.OrderStrategy
	Seed      int64
	InitModel vector.Dense
	SkipLoss  bool
}

func (tr *shardedRun) Run(tbl *engine.Table) (*core.Result, error) {
	sharded, err := engine.ShardTable(tbl, tr.Shards, tr.Strategy)
	if err != nil {
		return nil, err
	}
	defer sharded.Close()
	se, err := NewShardedEpoch(tr.Task, sharded, tr.Order, tr.Seed)
	if err != nil {
		return nil, err
	}
	return core.Drive(se, core.LoopConfig{Task: tr.Task, Step: tr.Step, MaxEpochs: tr.MaxEpochs,
		Seed: tr.Seed, InitModel: tr.InitModel, SkipLoss: tr.SkipLoss})
}

// buildRegTable makes a dense regression dataset y = truth·x + noise for
// the lasso parity runs (same (id, vec, label) layout as buildLRTable).
func buildRegTable(t *testing.T, n, d int, seed int64) *engine.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := engine.NewMemTable("d", tasks.DenseExampleSchema)
	truth := make(vector.Dense, d)
	for i := 0; i < d; i += 2 { // sparse truth: every other coefficient zero
		truth[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		x := make(vector.Dense, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := vector.Dot(truth, x) + 0.05*rng.NormFloat64()
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	return tbl
}

// TestShardedK1MatchesSequential pins the determinism claim of DESIGN.md
// §7: a 1-shard sharded run is bit-identical to the sequential trainer —
// same rng stream, same step sequence, and a weight-1.0 average that is
// exact in floating point.
func TestShardedK1MatchesSequential(t *testing.T) {
	tbl, task := buildLRTable(t, 300, 8, 1)
	for _, order := range []core.OrderStrategy{nil, ordering.ShuffleOnce{}, ordering.ShuffleAlways{}} {
		seq, err := (&core.Trainer{Task: task, Step: core.DefaultStep(0.3),
			MaxEpochs: 6, Order: order, Seed: 7}).Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := (&shardedRun{Task: task, Step: core.DefaultStep(0.3),
			MaxEpochs: 6, Shards: 1, Order: order, Seed: 7}).Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if d := vector.Dist2(seq.Model, sh.Model); d != 0 {
			name := "AsStored"
			if order != nil {
				name = order.Name()
			}
			t.Fatalf("%s: 1-shard model diverges from sequential by %g", name, d)
		}
	}
}

// shardedParityTol is the documented convergence-parity tolerance (see
// DESIGN.md §7): with a constant step and the gradient budget scaled by K
// (each sharded epoch advances the merged model by roughly alpha/K — the
// row-weighted average divides every shard's contribution by K), the
// sharded loss must land within 1.2× the sequential 20-epoch loss. On the
// fixed-seed datasets below it typically lands at or below it.
const shardedParityTol = 1.2

// shardedParityBaseEpochs is the sequential baseline's epoch count; the
// K-shard run gets K× that, i.e. the same total effective step budget.
const shardedParityBaseEpochs = 20

// TestShardedConvergenceParityMatrix is the convergence test matrix of the
// issue: LR, SVM and lasso at K ∈ {2, 4, 8}, fixed seeds, sharded loss
// within shardedParityTol of the sequential baseline, under both
// partitioning strategies.
func TestShardedConvergenceParityMatrix(t *testing.T) {
	lrTbl, lrTask := buildLRTable(t, 600, 8, 3)
	svmTbl, _ := buildLRTable(t, 600, 8, 4) // ±1 labels fit SVM too
	regTbl := buildRegTable(t, 600, 8, 5)
	cases := []struct {
		name  string
		tbl   *engine.Table
		task  core.Task
		alpha float64
	}{
		{"lr", lrTbl, lrTask, 0.3},
		{"svm", svmTbl, tasks.NewSVM(8), 0.1},
		{"lasso", regTbl, tasks.NewLasso(8, 0.01), 0.05},
	}
	for _, c := range cases {
		base, err := (&core.Trainer{Task: c.task, Step: core.ConstantStep{A: c.alpha},
			MaxEpochs: shardedParityBaseEpochs, Order: ordering.ShuffleOnce{}, Seed: 11}).Run(c.tbl)
		if err != nil {
			t.Fatalf("%s baseline: %v", c.name, err)
		}
		if !(base.FinalLoss() > 0) || math.IsInf(base.FinalLoss(), 0) {
			t.Fatalf("%s baseline loss degenerate: %g", c.name, base.FinalLoss())
		}
		for _, k := range []int{2, 4, 8} {
			for _, strat := range []engine.ShardStrategy{engine.ShardRoundRobin, engine.ShardHash} {
				tr := &shardedRun{Task: c.task, Step: core.ConstantStep{A: c.alpha},
					MaxEpochs: shardedParityBaseEpochs * k, Shards: k, Strategy: strat,
					Order: ordering.ShuffleOnce{}, Seed: 11}
				res, err := tr.Run(c.tbl)
				if err != nil {
					t.Fatalf("%s K=%d %v: %v", c.name, k, strat, err)
				}
				loss := res.FinalLoss()
				if math.IsNaN(loss) || math.IsInf(loss, 0) {
					t.Fatalf("%s K=%d %v: loss %g", c.name, k, strat, loss)
				}
				if loss > base.FinalLoss()*shardedParityTol {
					t.Errorf("%s K=%d %v: sharded loss %g vs sequential %g (tol %.2fx)",
						c.name, k, strat, loss, base.FinalLoss(), shardedParityTol)
				}
				// Training must actually make progress, not just not explode.
				if len(res.Losses) > 1 && loss >= res.Losses[0] {
					t.Errorf("%s K=%d %v: loss did not improve (%g → %g)",
						c.name, k, strat, res.Losses[0], loss)
				}
			}
		}
	}
}

// TestShardedDeterministicAcrossRuns: the same statement-level inputs give
// the same model bit-for-bit, epoch workers notwithstanding — averaging in
// fixed shard order keeps the merge deterministic.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	tbl, task := buildLRTable(t, 400, 8, 6)
	run := func() vector.Dense {
		tr := &shardedRun{Task: task, Step: core.DefaultStep(0.3), MaxEpochs: 8,
			Shards: 4, Order: ordering.ShuffleAlways{}, Seed: 9}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return res.Model
	}
	a, b := run(), run()
	if d := vector.Dist2(a, b); d != 0 {
		t.Fatalf("two identical sharded runs diverge by %g", d)
	}
}

// panicTask panics on the Nth gradient step — the fault the shard workers
// must contain.
type panicTask struct {
	*tasks.LR
	mu    sync.Mutex
	calls int
	at    int
}

func (p *panicTask) Step(m core.Model, tp engine.Tuple, alpha float64) {
	p.mu.Lock()
	p.calls++
	c := p.calls
	p.mu.Unlock()
	if c >= p.at {
		panic("injected shard worker panic")
	}
	p.LR.Step(m, tp, alpha)
}

// TestShardedWorkerPanicFailsRunNotProcess proves panic containment: a
// panicking shard worker surfaces as a trainer error naming the shard, the
// sibling workers finish their epoch, and the process survives.
func TestShardedWorkerPanicFailsRunNotProcess(t *testing.T) {
	tbl, lr := buildLRTable(t, 200, 4, 8)
	task := &panicTask{LR: lr, at: 50}
	tr := &shardedRun{Task: task, Step: core.ConstantStep{A: 0.1},
		MaxEpochs: 3, Shards: 4, Seed: 1}
	_, err := tr.Run(tbl)
	if err == nil {
		t.Fatal("panicking shard worker must fail the run")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not report the panic: %v", err)
	}
}

// TestShardedTrainersRace runs several sharded trainers concurrently over
// one shared source table — the -race proof that partitioning scans and
// shard workers share no unsynchronized state.
func TestShardedTrainersRace(t *testing.T) {
	tbl, task := buildLRTable(t, 400, 8, 10)
	// Materialize once up front so concurrent ShardTable scans exercise the
	// shared cache path, not a build race.
	if _, err := tbl.Materialize(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	models := make([]vector.Dense, 6)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &shardedRun{Task: task, Step: core.DefaultStep(0.3), MaxEpochs: 5,
				Shards: 1 + g%4, Order: ordering.ShuffleOnce{}, Seed: 21}
			res, err := tr.Run(tbl)
			if err != nil {
				errs[g] = err
				return
			}
			models[g] = res.Model
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("concurrent trainer %d: %v", g, err)
		}
		if len(models[g]) != task.Dim() {
			t.Fatalf("trainer %d returned truncated model", g)
		}
	}
}

// TestShardedEmptyTable: zero rows must train to the unchanged initial
// model, not divide by zero in the merge.
func TestShardedEmptyTable(t *testing.T) {
	tbl := engine.NewMemTable("empty", tasks.DenseExampleSchema)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	task := tasks.NewLR(4)
	init := vector.Dense{1, 2, 3, 4}
	tr := &shardedRun{Task: task, Step: core.ConstantStep{A: 0.1},
		MaxEpochs: 3, Shards: 4, InitModel: init, SkipLoss: true}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d := vector.Dist2(res.Model, init); d != 0 {
		t.Fatalf("empty-table training changed the model by %g", d)
	}
}

// TestShardedMoreShardsThanRows: empty shards carry zero weight and the
// populated ones still converge.
func TestShardedMoreShardsThanRows(t *testing.T) {
	tbl, task := buildLRTable(t, 5, 3, 13)
	tr := &shardedRun{Task: task, Step: core.ConstantStep{A: 0.1},
		MaxEpochs: 4, Shards: 16, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalLoss()) {
		t.Fatal("NaN loss with empty shards")
	}
}

// flakyRunner is a ShardRunner whose passes fail on demand — the fixture
// for the stale-error-slot regression tests below.
type flakyRunner struct {
	rows     int
	failRun  bool
	failLoss bool
	loss     float64
}

func (f *flakyRunner) RunEpoch(epoch int, w vector.Dense, alpha float64, replica vector.Dense) error {
	if f.failRun {
		return errFlakyRun
	}
	copy(replica, w)
	return nil
}

func (f *flakyRunner) LossAt(w vector.Dense) (float64, error) {
	if f.failLoss {
		return 0, errFlakyLoss
	}
	return f.loss, nil
}

func (f *flakyRunner) Rows() int { return f.rows }

var (
	errFlakyRun  = errors.New("flaky: run failed")
	errFlakyLoss = errors.New("flaky: loss failed")
)

// TestShardedStaleErrorNeverLeaksAcrossPasses is the error-slot reset
// regression test: ShardedEpoch reuses one errs slice across Run and Loss,
// so each pass must clear the slots before spawning workers. A Run that
// failed must not make a subsequent healthy Loss report the stale Run
// error — and vice versa.
func TestShardedStaleErrorNeverLeaksAcrossPasses(t *testing.T) {
	task := tasks.NewLR(3)
	sick := &flakyRunner{rows: 10, failRun: true, loss: 1.5}
	fine := &flakyRunner{rows: 20, loss: 2.5}
	se, err := NewShardedEpochRunners(task, []ShardRunner{fine, sick})
	if err != nil {
		t.Fatal(err)
	}
	w := vector.Dense{0.1, 0.2, 0.3}

	// Pass 1: Run fails (shard 1's slot holds errFlakyRun afterwards).
	if err := se.Run(0, w, 0.1); !errors.Is(err, errFlakyRun) {
		t.Fatalf("Run: want errFlakyRun, got %v", err)
	}
	// Pass 2: a healthy Loss must succeed — the stale Run error must not
	// leak into its verdict — and report the true sum plus regularization.
	loss, err := se.Loss(w)
	if err != nil {
		t.Fatalf("stale Run error leaked into Loss: %v", err)
	}
	want := 1.5 + 2.5
	if r, ok := core.Task(task).(core.Regularized); ok {
		want += r.RegPenalty(w)
	}
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("Loss = %g, want %g", loss, want)
	}

	// And the mirror image: a failed Loss must not poison a later Run.
	sick.failRun, sick.failLoss = false, true
	if _, err := se.Loss(w); !errors.Is(err, errFlakyLoss) {
		t.Fatalf("Loss: want errFlakyLoss, got %v", err)
	}
	sick.failLoss = false
	if err := se.Run(1, w, 0.1); err != nil {
		t.Fatalf("stale Loss error leaked into Run: %v", err)
	}
}

// TestShardedRunnersMergeIsRowWeighted pins the merge algebra on the
// runner seam directly: replicas combine weighted by each runner's row
// count, the contract remote executors rely on.
func TestShardedRunnersMergeIsRowWeighted(t *testing.T) {
	task := tasks.NewLR(2)
	a := &constRunner{rows: 30, w: vector.Dense{1, 0}}
	b := &constRunner{rows: 10, w: vector.Dense{0, 1}}
	se, err := NewShardedEpochRunners(task, []ShardRunner{a, b})
	if err != nil {
		t.Fatal(err)
	}
	w := vector.NewDense(2)
	if err := se.Run(0, w, 0.1); err != nil {
		t.Fatal(err)
	}
	want := vector.Dense{0.75, 0.25} // 30/40 · e0 + 10/40 · e1
	if d := vector.Dist2(w, want); d > 1e-24 {
		t.Fatalf("merged model %v, want %v", w, want)
	}
}

// constRunner reports a fixed post-epoch replica regardless of input.
type constRunner struct {
	rows int
	w    vector.Dense
}

func (c *constRunner) RunEpoch(epoch int, w vector.Dense, alpha float64, replica vector.Dense) error {
	copy(replica, c.w)
	return nil
}

func (c *constRunner) LossAt(w vector.Dense) (float64, error) { return 0, nil }
func (c *constRunner) Rows() int                              { return c.rows }
