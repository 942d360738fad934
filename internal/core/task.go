package core

import (
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// Task is one analytics technique plugged into Bismarck: it supplies the
// per-tuple gradient step (the body of the UDA transition function, Figure
// 4 of the paper) and the per-tuple loss used by convergence tests. The
// rest of the architecture — epoch loop, ordering, parallelism, sampling —
// is shared across all tasks.
type Task interface {
	// Name identifies the task (e.g. "LR", "SVM", "LMF", "CRF").
	Name() string
	// Dim is the flattened model dimension.
	Dim() int
	// Step performs one incremental gradient update on m for tuple t with
	// step size alpha (Eq. 2), including any per-step proximal/projection
	// work the task needs (Eq. 3). The tuple may alias reusable scan
	// scratch: it is only valid during the call and must not be retained.
	Step(m Model, t engine.Tuple, alpha float64)
	// Loss evaluates the tuple's contribution to the objective at w. The
	// same no-retention rule as Step applies.
	Loss(w vector.Dense, t engine.Tuple) float64
}

// Initializer is implemented by tasks whose models should not start at
// zero (e.g. LMF factors start at small random values, portfolio weights
// start uniform on the simplex).
type Initializer interface {
	InitModel(seed int64) vector.Dense
}

// Regularized is implemented by tasks with a nonzero P(w) term whose value
// should be added once per loss evaluation (not once per tuple).
type Regularized interface {
	RegPenalty(w vector.Dense) float64
}

// InitialModel returns the task's preferred starting model: the task's own
// initializer if present, otherwise zeros.
func InitialModel(t Task, seed int64) vector.Dense {
	if init, ok := t.(Initializer); ok {
		return init.InitModel(seed)
	}
	return vector.NewDense(t.Dim())
}

// TotalLoss computes sum_i f(w, z_i) (+ P(w) if the task is Regularized)
// as an aggregation scan — the loss UDA of §3.1 — in a fixed association:
// the rows split into engine.BlockRows-row blocks in storage order, each
// block is summed left to right from zero, and the block sums are added in
// block order. The result therefore depends on the rows and w alone, not on
// how many workers computed it, and a table of at most one block gets the
// plain left-to-right sum. Over the table's decoded-row cache, when one is
// fresh (the common case inside the epoch loop, where the gradient pass just
// materialized it), the blocks run on engine.Workers goroutines; otherwise
// they run one after another through reusable decode scratch. It never
// builds a cache, so a physically reshuffled table does not pay a
// rematerialization per loss evaluation. Task.Loss may run concurrently, and
// on every path a panic in it fails the pass with an error.
func TotalLoss(t Task, w vector.Dense, tbl *engine.Table) (float64, error) {
	var sum float64
	var err error
	if mat := tbl.CachedRows(); mat != nil && mat.Blocks() > 1 {
		sum, err = blockedLoss(t, w, mat)
	} else {
		// One scan on this goroutine; a panic in Loss fails the pass here too.
		acc := lossAcc{t: t, w: w}
		err = engine.Contain(func() error { return tbl.Rows().Scan(acc.add) })
		sum = acc.sum + acc.block
	}
	if err != nil {
		return 0, err
	}
	if r, ok := t.(Regularized); ok {
		sum += r.RegPenalty(w)
	}
	return sum, nil
}

// lossAcc sums the blocks of a pass in order on one goroutine.
type lossAcc struct {
	t          Task
	w          vector.Dense
	sum, block float64
	rows       int
}

func (a *lossAcc) add(tp engine.Tuple) error {
	a.block += a.t.Loss(a.w, tp)
	if a.rows++; a.rows%engine.BlockRows == 0 {
		a.sum, a.block = a.sum+a.block, 0
	}
	return nil
}

// blockedLoss sums the cache's blocks on the workers, then adds the block
// sums in order.
func blockedLoss(t Task, w vector.Dense, mat *engine.Materialized) (float64, error) {
	sums := make([]float64, mat.Blocks())
	err := engine.RunBlocks(engine.Workers(), len(sums), func(_, b int) error {
		var block float64
		err := mat.ScanBlock(b, func(tp engine.Tuple) error {
			block += t.Loss(w, tp)
			return nil
		})
		sums[b] = block
		return err
	})
	var sum float64
	for _, s := range sums {
		sum += s
	}
	return sum, err
}
