package baselines

import (
	"fmt"
	"math"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// batchRunner trains any core.Task by full (deterministic) gradient
// descent: every Run scans ALL the data to form one gradient, then takes
// one step. It is the classical alternative to IGD — and the reason IGD
// wins: an IGD epoch takes N steps for the same scan cost. With a
// conservative step size (Mallet-style) it is slower still; batch GD is the
// stand-in for the batch optimizers inside CRF++ / Mallet and the "native
// tool" gradient code paths.
//
// The gradient is recovered from the task's own Step function by running it
// against a scratch model with α = 1 and differencing, so any Bismarck task
// gets a batch baseline for free.
type batchRunner struct {
	task       core.Task
	tbl        *engine.Table
	lineSearch bool
	scale      float64 // line-search halvings of Drive's alpha so far
	inv        float64 // 1/N: the gradient is averaged over the rows
	grad, cand vector.Dense
	scratch    *core.DenseModel
	loss       float64 // objective at the latest step's model; NaN before the first
}

// NewBatchRunner builds the batch gradient descent plan over tbl. With
// lineSearch, a step that fails to decrease the loss is retried at half the
// step size, and the halving persists for the rest of the run. Loss returns
// the objective the step already computed, so a Run is one gradient scan
// plus one or two loss scans.
func NewBatchRunner(task core.Task, tbl *engine.Table, lineSearch bool) (core.EpochRunner, error) {
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("baselines: empty table")
	}
	d := task.Dim()
	return &batchRunner{task: task, tbl: tbl, lineSearch: lineSearch, scale: 1,
		inv: 1 / float64(n), grad: vector.NewDense(d), cand: vector.NewDense(d),
		scratch: &core.DenseModel{W: vector.NewDense(d)}, loss: math.NaN()}, nil
}

func (r *batchRunner) Run(_ int, w vector.Dense, alpha float64) error {
	if alpha <= 0 {
		return fmt.Errorf("baselines: batch GD step must be > 0, got %g", alpha)
	}
	r.grad.Zero()
	// One full scan: accumulate Σ ∇f_i(w) using the task's Step as a
	// gradient oracle (Step(w, z, 1) moves the scratch model by −∇f).
	err := r.tbl.Rows().Scan(func(tp engine.Tuple) error {
		copy(r.scratch.W, w)
		r.task.Step(r.scratch, tp, 1)
		for i := range r.grad {
			r.grad[i] += w[i] - r.scratch.W[i] // = ∇f_i(w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	loss, err := r.try(w, alpha*r.scale)
	if err != nil {
		return err
	}
	if r.lineSearch && !math.IsNaN(r.loss) && loss > r.loss {
		// Retry the halved step from the same w.
		r.scale /= 2
		if loss, err = r.try(w, alpha*r.scale); err != nil {
			return err
		}
	}
	copy(w, r.cand)
	r.loss = loss
	return nil
}

// try forms the candidate w − step·ḡ and returns its objective.
func (r *batchRunner) try(w vector.Dense, step float64) (float64, error) {
	copy(r.cand, w)
	vector.Axpy(r.cand, r.grad, -step*r.inv)
	return core.TotalLoss(r.task, r.cand, r.tbl)
}

func (r *batchRunner) Loss(vector.Dense) (float64, error) { return r.loss, nil }
