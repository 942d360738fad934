package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// Mode selects the parallelization scheme of §3.3.
type Mode int

// Parallelization schemes.
const (
	// PureUDA is the shared-nothing plan: per-segment models merged by
	// averaging through the engine's standard parallel-aggregate machinery.
	PureUDA Mode = iota
	// Lock is shared memory with a global mutex held for every gradient
	// step; it serializes the workers and shows no speed-up.
	Lock
	// AIG is the Atomic Incremental Gradient scheme: per-component
	// compare-and-exchange updates, no lost writes.
	AIG
	// NoLock is Hogwild!: unsynchronized concurrent updates, lost writes
	// tolerated. The paper's choice for Bismarck.
	NoLock
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case PureUDA:
		return "PureUDA"
	case Lock:
		return "Lock"
	case AIG:
		return "AIG"
	case NoLock:
		return "NoLock"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// sharedRunner is the shared-memory plan (Lock / AIG / NoLock): every
// epoch, workers scan disjoint segments of the table and update ONE model
// concurrently. Under Lock that model is w itself behind a mutex; under
// AIG/NoLock it is an AtomicModel loaded from w before the scan and
// snapshotted back into w after it.
type sharedRunner struct {
	task    core.Task
	tbl     *engine.Table
	src     engine.Relation
	prepare func(epoch int, rng *rand.Rand) error
	rng     *rand.Rand
	workers int
	mode    Mode
	profile engine.Profile
	shared  *AtomicModel // AIG / NoLock, sized on first use
}

// NewRunner builds the epoch runner for a §3.3 scheme over tbl. PureUDA is
// the engine's segmented aggregation plan — core's UDA runner with
// Segments = workers; the other modes share one model across workers. The
// worker scans run over whichever pipeline core.EpochSource picks, and the
// ordering draws from rand.NewSource(seed). p.Segments is ignored
// (workers wins); workers <= 0 means 1.
func NewRunner(task core.Task, tbl *engine.Table, mode Mode, workers int,
	order core.OrderStrategy, p engine.Profile, seed int64) (core.EpochRunner, error) {
	if workers <= 0 {
		workers = 1
	}
	switch mode {
	case PureUDA:
		p.Segments = workers
		return core.NewUDARunner(task, tbl, order, p, seed, false)
	case Lock, AIG, NoLock:
	default:
		return nil, fmt.Errorf("parallel: unknown mode %v", mode)
	}
	if order == nil {
		order = core.NoOrder{}
	}
	src, prepare, err := core.EpochSource(tbl, order, p)
	if err != nil {
		return nil, err
	}
	return &sharedRunner{task: task, tbl: tbl, src: src, prepare: prepare,
		rng: rand.New(rand.NewSource(seed)), workers: workers, mode: mode, profile: p}, nil
}

func (r *sharedRunner) Run(epoch int, w vector.Dense, alpha float64) error {
	if err := r.prepare(epoch, r.rng); err != nil {
		return err
	}
	if r.mode == Lock {
		var mu sync.Mutex
		dm := &core.DenseModel{W: w}
		return engine.RunSharedScan(r.src, r.workers, r.profile, func(_ int, tp engine.Tuple) error {
			// Unlocked in a defer: a panicking step must not leave the
			// other workers blocked on mu while RunBlocks waits for them.
			mu.Lock()
			defer mu.Unlock()
			r.task.Step(dm, tp, alpha)
			return nil
		})
	}
	if r.shared == nil {
		r.shared = NewAtomicModel(len(w), r.mode == AIG)
	}
	r.shared.SetFrom(w)
	err := engine.RunSharedScan(r.src, r.workers, r.profile, func(_ int, tp engine.Tuple) error {
		r.task.Step(r.shared, tp, alpha)
		return nil
	})
	if err != nil {
		return err
	}
	r.shared.CopyTo(w)
	return nil
}

func (r *sharedRunner) Loss(w vector.Dense) (float64, error) {
	return core.TotalLoss(r.task, w, r.tbl)
}

// Trainer is the struct-literal front door to the §3.3 schemes: Run builds
// the mode's runner and hands it to core.Drive. The loop fields mean what
// they mean on core.LoopConfig.
type Trainer struct {
	Task       core.Task
	Step       core.StepRule
	MaxEpochs  int
	Workers    int
	Mode       Mode
	RelTol     float64
	TargetLoss float64
	Order      core.OrderStrategy
	Profile    engine.Profile // per-call overhead emulation; Segments is ignored (Workers wins)
	Seed       int64
	InitModel  vector.Dense
	SkipLoss   bool
	Ctx        context.Context
}

// Run trains the task and reports the result.
func (tr *Trainer) Run(tbl *engine.Table) (*core.Result, error) {
	r, err := NewRunner(tr.Task, tbl, tr.Mode, tr.Workers, tr.Order, tr.Profile, tr.Seed)
	if err != nil {
		return nil, err
	}
	return core.Drive(r, core.LoopConfig{Task: tr.Task, Step: tr.Step, MaxEpochs: tr.MaxEpochs,
		RelTol: tr.RelTol, TargetLoss: tr.TargetLoss, Seed: tr.Seed,
		InitModel: tr.InitModel, SkipLoss: tr.SkipLoss, Ctx: tr.Ctx})
}
