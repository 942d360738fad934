package experiments

import (
	"context"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
)

// engineTable aliases the engine table type for experiment helpers.
type engineTable = engine.Table

// timeToTarget returns "Xs (N)" — cumulative training time and pass count
// until the loss first reaches target — or "-" if it never does. The
// per-epoch times must exclude loss-evaluation overhead so the comparison
// measures training work.
func timeToTarget(losses []float64, times []time.Duration, target float64) string {
	var cum time.Duration
	for i, l := range losses {
		if i < len(times) {
			cum += times[i]
		}
		if l <= target {
			return secs(cum) + " (" + itoa(i+1) + ")"
		}
	}
	return "-"
}

// baseline is one baseline-solver run under core.Drive: a constant step
// (IRLS and ALS ignore it), an iteration cap, a tolerance, and a wall-clock
// budget that starts when drive is called.
type baseline struct {
	task   core.Task
	alpha  float64
	iters  int
	relTol float64
	seed   int64
	budget time.Duration
}

// drive runs the solver's plan as its constructor returns it. A run the
// budget cuts short returns its partial result and DeadlineExceeded.
func (b baseline) drive(r core.EpochRunner, err error) (*core.Result, error) {
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.budget)
	defer cancel()
	return core.Drive(r, core.LoopConfig{Task: b.task, Step: core.ConstantStep{A: b.alpha},
		MaxEpochs: b.iters, RelTol: b.relTol, Seed: b.seed, Ctx: ctx})
}
