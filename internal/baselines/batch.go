package baselines

import (
	"fmt"
	"math"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// BatchGD trains any core.Task by full (deterministic) gradient descent:
// every iteration scans ALL the data to form one gradient, then takes one
// step. It is the classical alternative to IGD — and the reason IGD wins:
// an IGD epoch takes N steps for the same scan cost. With a conservative
// step size (Mallet-style) it is slower still; BatchGD is the stand-in for
// the batch optimizers inside CRF++ / Mallet and the "native tool" gradient
// code paths.
//
// The gradient is recovered from the task's own Step function by running it
// against a scratch model with α = 1 and differencing, so any Bismarck task
// gets a batch baseline for free.
type BatchGD struct {
	Task       core.Task
	Alpha      float64 // step size applied to the averaged gradient
	MaxIters   int
	RelTol     float64
	TargetLoss float64
	// LineSearch halves Alpha whenever a step fails to decrease the loss.
	LineSearch bool
	Seed       int64
	// Deadline mirrors core.Trainer.Deadline.
	Deadline time.Time
}

// Run trains and reports per-iteration losses.
func (b *BatchGD) Run(tbl *engine.Table) (*core.Result, error) {
	if b.MaxIters <= 0 {
		return nil, fmt.Errorf("baselines: BatchGD.MaxIters must be > 0")
	}
	if b.Alpha <= 0 {
		return nil, fmt.Errorf("baselines: BatchGD.Alpha must be > 0")
	}
	d := b.Task.Dim()
	w := core.InitialModel(b.Task, b.Seed)
	res := &core.Result{}
	start := time.Now()
	alpha := b.Alpha
	prevLoss := math.NaN()
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("baselines: empty table")
	}
	grad := vector.NewDense(d)
	scratch := &core.DenseModel{W: vector.NewDense(d)}
	for it := 0; it < b.MaxIters; it++ {
		if !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
			res.Model = w
			res.Total = time.Since(start)
			return res, core.ErrDeadline
		}
		iterStart := time.Now()
		grad.Zero()
		// One full scan: accumulate Σ ∇f_i(w) using the task's Step as a
		// gradient oracle (Step(w, z, 1) moves the scratch model by −∇f).
		err := tbl.Rows().Scan(func(tp engine.Tuple) error {
			copy(scratch.W, w)
			b.Task.Step(scratch, tp, 1)
			for i := range grad {
				grad[i] += w[i] - scratch.W[i] // = ∇f_i(w)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		inv := 1 / float64(n)
		cand := w.Clone()
		vector.Axpy(cand, grad, -alpha*inv)
		loss, err := core.TotalLoss(b.Task, cand, tbl)
		if err != nil {
			return nil, err
		}
		if b.LineSearch && !math.IsNaN(prevLoss) && loss > prevLoss {
			alpha /= 2
			// Retry the halved step from the same w.
			cand = w.Clone()
			vector.Axpy(cand, grad, -alpha*inv)
			loss, err = core.TotalLoss(b.Task, cand, tbl)
			if err != nil {
				return nil, err
			}
		}
		w = cand
		res.Epochs = it + 1
		res.Losses = append(res.Losses, loss)
		res.EpochTimes = append(res.EpochTimes, time.Since(iterStart))
		if b.TargetLoss != 0 && loss <= b.TargetLoss {
			res.Converged = true
			break
		}
		if b.RelTol > 0 && !math.IsNaN(prevLoss) && math.Abs(prevLoss-loss)/math.Max(math.Abs(prevLoss), 1) < b.RelTol {
			res.Converged = true
			break
		}
		prevLoss = loss
	}
	res.Model = w
	res.Total = time.Since(start)
	return res, nil
}
