package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"bismarck/internal/vector"
)

// EpochRunner is one execution plan's share of the Figure 2 loop: Run
// performs epoch e's gradient steps starting from w with step size alpha
// and leaves the post-epoch model in w; Loss evaluates the objective at w.
// Everything else — step schedule, convergence, cancellation, bookkeeping —
// belongs to Drive, so a plan is only "how one pass over the data runs".
type EpochRunner interface {
	Run(epoch int, w vector.Dense, alpha float64) error
	Loss(w vector.Dense) (float64, error)
}

// LoopConfig is the loop control every plan shares, declared once.
type LoopConfig struct {
	Task Task
	Step StepRule
	// MaxEpochs bounds the loop (required, > 0).
	MaxEpochs int
	// RelTol stops when the relative loss drop between consecutive epochs
	// falls below it (0 disables). 1e-3 reproduces the paper's "0.1%
	// tolerance" completion criterion.
	RelTol float64
	// TargetLoss stops as soon as the epoch loss is ≤ this value (0
	// disables); used to measure time-to-quality against baselines.
	TargetLoss float64
	// Seed drives model initialization (plans seed their ordering from the
	// same value, on a separate stream).
	Seed int64
	// InitModel overrides the task's initial model when non-nil.
	InitModel vector.Dense
	// SkipLoss disables per-epoch loss evaluation (then RelTol/TargetLoss
	// cannot fire and the loop always runs MaxEpochs).
	SkipLoss bool
	// Ctx, once done, stops the run before its next epoch or loss pass
	// (nil: context.Background()) with the partial Result and ctx.Err():
	// Model and Epochs count every gradient pass applied, and Losses and
	// EpochTimes stay paired over the epochs whose loss is known.
	Ctx context.Context
}

// Result reports a finished training run.
type Result struct {
	Model  vector.Dense
	Epochs int
	Losses []float64 // loss after each epoch (empty if SkipLoss)
	// EpochTimes[e] runs from the start of epoch e to the moment its loss
	// is known (to the end of the gradient pass under SkipLoss), so the
	// running sum is the wall-clock axis Losses[e] was observed on.
	EpochTimes []time.Duration
	Converged  bool
	Total      time.Duration
}

// FinalLoss returns the last recorded loss, or NaN if none.
func (r *Result) FinalLoss() float64 {
	if len(r.Losses) == 0 {
		return math.NaN()
	}
	return r.Losses[len(r.Losses)-1]
}

// Drive is the Bismarck epoch loop of Figure 2, the only one in the repo:
// run an epoch, compute the loss, test convergence, repeat.
func Drive(r EpochRunner, cfg LoopConfig) (*Result, error) {
	if cfg.Task == nil || cfg.Step == nil || cfg.MaxEpochs <= 0 {
		return nil, fmt.Errorf("core: training needs a Task, a Step rule and MaxEpochs > 0")
	}
	w := cfg.InitModel
	if w == nil {
		w = InitialModel(cfg.Task, cfg.Seed)
	} else {
		w = w.Clone()
	}

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Model: w}
	start := time.Now()
	prevLoss := math.NaN()
	for e := 0; e < cfg.MaxEpochs; e++ {
		if err := ctx.Err(); err != nil {
			res.Total = time.Since(start)
			return res, err
		}
		epochStart := time.Now()
		if err := r.Run(e, w, cfg.Step.Alpha(e)); err != nil {
			return nil, err
		}
		res.Epochs = e + 1
		if cfg.SkipLoss {
			res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
			continue
		}
		if err := ctx.Err(); err != nil {
			res.Total = time.Since(start)
			return res, err
		}
		loss, err := r.Loss(w)
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, loss)
		res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
		if cfg.TargetLoss != 0 && loss <= cfg.TargetLoss {
			res.Converged = true
			break
		}
		if cfg.RelTol > 0 && !math.IsNaN(prevLoss) {
			den := math.Abs(prevLoss)
			if den == 0 {
				den = 1
			}
			if math.Abs(prevLoss-loss)/den < cfg.RelTol {
				res.Converged = true
				break
			}
		}
		prevLoss = loss
	}
	res.Total = time.Since(start)
	return res, nil
}
