package core

import (
	"context"
	"math/rand"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// igdState is the aggregation context of the IGD UDA: the model plus meta
// data (the number of gradient steps folded into it, which weighs merges).
type igdState struct {
	w     vector.Dense
	model DenseModel // the Model wrapper over w handed to Task.Step, built once per state
	steps int
	loss  float64 // piggybacked online loss (sum of pre-step example losses)
}

func newIGDState(w vector.Dense, steps int, loss float64) *igdState {
	return &igdState{w: w, model: DenseModel{W: w}, steps: steps, loss: loss}
}

// CopyState implements engine.StateCopier so the DBMS A profile can charge
// model-passing overhead at merge boundaries.
func (s *igdState) CopyState() engine.State {
	return newIGDState(s.w.Clone(), s.steps, s.loss)
}

// IGDAggregate is incremental gradient descent expressed as a standard
// user-defined aggregate (§3.1): initialize loads the model, transition
// performs one gradient step per tuple, merge averages two independently
// trained models weighted by their step counts (the model-averaging scheme
// of Zinkevich et al. that makes IGD "essentially algebraic"), and
// terminate returns the model.
type IGDAggregate struct {
	Task  Task
	Alpha float64      // step size for this epoch
	Init  vector.Dense // model at the start of the epoch
	// PiggybackLoss accumulates each example's loss (under the model right
	// before its step) during the same scan — the paper's "piggybacked onto
	// the IGD UDA" loss computation, which saves a second pass per epoch.
	PiggybackLoss bool
}

// Initialize implements engine.UDA.
func (a *IGDAggregate) Initialize() engine.State {
	return newIGDState(a.Init.Clone(), 0, 0)
}

// Transition implements engine.UDA.
func (a *IGDAggregate) Transition(s engine.State, t engine.Tuple) engine.State {
	st := s.(*igdState)
	if a.PiggybackLoss {
		st.loss += a.Task.Loss(st.w, t)
	}
	a.Task.Step(&st.model, t, a.Alpha)
	st.steps++
	return st
}

// Merge implements engine.Merger by step-count-weighted model averaging.
func (a *IGDAggregate) Merge(x, y engine.State) engine.State {
	sx, sy := x.(*igdState), y.(*igdState)
	tot := sx.steps + sy.steps
	if tot == 0 {
		return sx
	}
	cx := float64(sx.steps) / float64(tot)
	cy := float64(sy.steps) / float64(tot)
	for i := range sx.w {
		sx.w[i] = cx*sx.w[i] + cy*sy.w[i]
	}
	sx.steps = tot
	sx.loss += sy.loss
	return sx
}

// Terminate implements engine.UDA.
func (a *IGDAggregate) Terminate(s engine.State) engine.State { return s }

// OrderStrategy prepares the physical order of the data table before an
// epoch: ShuffleAlways, ShuffleOnce, or Clustered (no-op). Implementations
// live in internal/ordering.
type OrderStrategy interface {
	Name() string
	// Prepare is called before epoch e (0-based) runs.
	Prepare(tbl *engine.Table, epoch int, rng *rand.Rand) error
}

// LogicalOrderStrategy is implemented by ordering strategies that can
// express their reorder as a permutation of a materialized cache's row
// index instead of a physical table rewrite. When the engine profile does
// not charge physical-rewrite cost, the trainers run epochs over the cache
// and call PrepareLogical; strategies without it force the physical path.
type LogicalOrderStrategy interface {
	PrepareLogical(v *engine.MatView, epoch int, rng *rand.Rand) error
}

// NoOrder leaves the table untouched (i.e. "Clustered" when the table is
// physically clustered).
type NoOrder struct{}

// Name implements OrderStrategy.
func (NoOrder) Name() string { return "AsStored" }

// Prepare implements OrderStrategy.
func (NoOrder) Prepare(*engine.Table, int, *rand.Rand) error { return nil }

// PrepareLogical implements LogicalOrderStrategy.
func (NoOrder) PrepareLogical(*engine.MatView, int, *rand.Rand) error { return nil }

// EpochSource selects a trainer run's epoch pipeline and is shared by the
// sequential and parallel trainers. The zero-allocation steady state runs
// every epoch over the table's decoded-row cache, expressing shuffles as
// permutations of a per-run view; only the initial materialization touches
// page bytes. The physical path — profile charges rewrite cost, or the
// ordering has no logical form — reorders on disk and scans the table
// itself, re-decoding its pages through scratch each epoch. The returned
// prepare function applies the ordering before each epoch against
// whichever pipeline was chosen.
func EpochSource(tbl *engine.Table, order OrderStrategy, p engine.Profile) (
	engine.Relation, func(epoch int, rng *rand.Rand) error, error) {
	logical, canLogical := order.(LogicalOrderStrategy)
	if !p.PhysicalReorder && canLogical {
		mat, err := tbl.Materialize()
		if err != nil {
			return nil, nil, err
		}
		view := mat.View()
		return view, func(e int, rng *rand.Rand) error {
			return logical.PrepareLogical(view, e, rng)
		}, nil
	}
	return tbl, func(e int, rng *rand.Rand) error {
		return order.Prepare(tbl, e, rng)
	}, nil
}

// udaRunner is the sequential and pure-UDA plan: each epoch applies the
// ordering and runs the IGD aggregate through the engine's (possibly
// segmented) UDA executor.
type udaRunner struct {
	task      Task
	tbl       *engine.Table
	src       engine.Relation
	prepare   func(epoch int, rng *rand.Rand) error
	rng       *rand.Rand
	profile   engine.Profile
	piggyback bool
	scanLoss  float64 // piggybacked loss of the latest epoch
}

// NewUDARunner builds the plan that runs IGD as a standard aggregate over
// tbl: sequential under a plain profile, the shared-nothing pure-UDA
// scheme when p.Segments > 1. The ordering draws from rand.NewSource(seed);
// a nil order means NoOrder. With piggyback the per-epoch loss is the
// online one accumulated during the gradient scan itself (each example's
// loss under the model just before its step), saving the second pass.
func NewUDARunner(task Task, tbl *engine.Table, order OrderStrategy, p engine.Profile,
	seed int64, piggyback bool) (EpochRunner, error) {
	if order == nil {
		order = NoOrder{}
	}
	src, prepare, err := EpochSource(tbl, order, p)
	if err != nil {
		return nil, err
	}
	return &udaRunner{task: task, tbl: tbl, src: src, prepare: prepare,
		rng: rand.New(rand.NewSource(seed)), profile: p, piggyback: piggyback}, nil
}

func (r *udaRunner) Run(epoch int, w vector.Dense, alpha float64) error {
	if err := r.prepare(epoch, r.rng); err != nil {
		return err
	}
	agg := &IGDAggregate{Task: r.task, Alpha: alpha, Init: w, PiggybackLoss: r.piggyback}
	out, err := engine.RunUDA(r.src, agg, r.profile)
	if err != nil {
		return err
	}
	st := out.(*igdState)
	copy(w, st.w)
	r.scanLoss = st.loss
	return nil
}

func (r *udaRunner) Loss(w vector.Dense) (float64, error) {
	if !r.piggyback {
		return TotalLoss(r.task, w, r.tbl)
	}
	loss := r.scanLoss
	if reg, ok := r.task.(Regularized); ok {
		loss += reg.RegPenalty(w)
	}
	return loss, nil
}

// Trainer is the struct-literal front door to the sequential plan: Run
// builds a UDA runner over the table and hands it to Drive. The loop
// fields mean what they mean on LoopConfig.
type Trainer struct {
	Task       Task
	Step       StepRule
	MaxEpochs  int
	RelTol     float64
	TargetLoss float64
	// Order is applied before each epoch; nil means NoOrder.
	Order OrderStrategy
	// Profile selects the hosting engine emulation; zero value is a plain
	// sequential scan.
	Profile   engine.Profile
	Seed      int64
	InitModel vector.Dense
	SkipLoss  bool
	// PiggybackLoss computes the per-epoch loss during the gradient scan
	// itself instead of a separate aggregation pass. It is an online
	// approximation of the objective, and the convergence tests run
	// against it.
	PiggybackLoss bool
	Ctx           context.Context
}

// Run trains the task over the table and returns the result.
func (tr *Trainer) Run(tbl *engine.Table) (*Result, error) {
	r, err := NewUDARunner(tr.Task, tbl, tr.Order, tr.Profile, tr.Seed, tr.PiggybackLoss && !tr.SkipLoss)
	if err != nil {
		return nil, err
	}
	return Drive(r, LoopConfig{Task: tr.Task, Step: tr.Step, MaxEpochs: tr.MaxEpochs,
		RelTol: tr.RelTol, TargetLoss: tr.TargetLoss, Seed: tr.Seed,
		InitModel: tr.InitModel, SkipLoss: tr.SkipLoss, Ctx: tr.Ctx})
}
