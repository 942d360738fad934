package baselines

import (
	"fmt"
	"math"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// IRLS trains logistic regression by iteratively reweighted least squares
// (Newton's method): each iteration builds the d×d Hessian XᵀSX in one data
// scan and solves a dense linear system. The per-iteration cost is
// O(N·d² + d³) — super-linear in the dimension, which is exactly why the
// paper finds the MADlib-style LR slower than IGD on wide data and
// infeasible on sparse 41k-dimensional DBLife.
type IRLS struct {
	D          int
	Mu         float64 // L2 ridge added to the Hessian diagonal
	MaxIters   int
	RelTol     float64
	TargetLoss float64
	// MaxDim aborts with an error when D exceeds it (0 = unlimited); models
	// the "crashes / does not finish" outcomes of Table 4.
	MaxDim int
	// Deadline mirrors core.Trainer.Deadline.
	Deadline time.Time
}

// IRLSResult reports a finished IRLS run.
type IRLSResult struct {
	Model     vector.Dense
	Iters     int
	Losses    []float64
	Total     time.Duration
	Converged bool
}

// Run trains on a dense-example table (tasks.DenseExampleSchema).
func (ir *IRLS) Run(tbl *engine.Table) (*IRLSResult, error) {
	if ir.MaxDim > 0 && ir.D > ir.MaxDim {
		return nil, fmt.Errorf("baselines: IRLS on d=%d exceeds budget %d (O(d²) memory, O(d³) solve)", ir.D, ir.MaxDim)
	}
	if ir.MaxIters <= 0 {
		ir.MaxIters = 25
	}
	d := ir.D
	w := vector.NewDense(d)
	lrTask := &tasks.LR{D: d, Mu: ir.Mu}
	res := &IRLSResult{}
	start := time.Now()
	prevLoss := math.NaN()
	for it := 0; it < ir.MaxIters; it++ {
		if !ir.Deadline.IsZero() && time.Now().After(ir.Deadline) {
			res.Model = w
			res.Total = time.Since(start)
			return res, core.ErrDeadline
		}
		H := NewMatrix(d)
		g := vector.NewDense(d)
		err := tbl.Rows().Scan(func(tp engine.Tuple) error {
			x := tp[tasks.ColVec].Dense
			y := tp[tasks.ColLabel].Float
			wx := vector.Dot(w[:len(x)], x)
			p := 1 / (1 + math.Exp(-wx))
			// Gradient of Σ log(1+exp(−y wᵀx)) in p-space: (p − t)x with
			// t = (y+1)/2.
			t := (y + 1) / 2
			c := p - t
			s := p * (1 - p)
			for i, xi := range x {
				g[i] += c * xi
				hi := H.A[i*d:]
				for j, xj := range x {
					hi[j] += s * xi * xj
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if ir.Mu > 0 {
			H.AddDiag(ir.Mu)
			for i := range g {
				g[i] += ir.Mu * w[i]
			}
		} else {
			H.AddDiag(1e-8) // numerical floor
		}
		step, err := H.Solve(append([]float64(nil), g...))
		if err != nil {
			return nil, err
		}
		for i := range w {
			w[i] -= step[i]
		}
		res.Iters = it + 1
		loss, err := totalLRLoss(lrTask, w, tbl)
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, loss)
		if ir.TargetLoss != 0 && loss <= ir.TargetLoss {
			res.Converged = true
			break
		}
		if ir.RelTol > 0 && !math.IsNaN(prevLoss) && math.Abs(prevLoss-loss)/math.Max(math.Abs(prevLoss), 1) < ir.RelTol {
			res.Converged = true
			break
		}
		prevLoss = loss
	}
	res.Model = w
	res.Total = time.Since(start)
	return res, nil
}

func totalLRLoss(t *tasks.LR, w vector.Dense, tbl *engine.Table) (float64, error) {
	var sum float64
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		sum += t.Loss(w, tp)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return sum + t.RegPenalty(w), nil
}
