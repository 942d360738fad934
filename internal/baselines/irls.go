package baselines

import (
	"math"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// irlsRunner trains logistic regression by iteratively reweighted least
// squares (Newton's method): each Run builds the d×d Hessian XᵀSX in one
// data scan and solves a dense linear system. The per-iteration cost is
// O(N·d² + d³) — super-linear in the dimension, which is exactly why the
// paper finds the MADlib-style LR slower than IGD on wide data and
// infeasible on sparse 41k-dimensional DBLife.
type irlsRunner struct {
	lr  *tasks.LR
	tbl *engine.Table
}

// NewIRLSRunner builds the Newton plan for lr over a dense-example table
// (tasks.DenseExampleSchema). The task's Mu is the ridge added to the
// Hessian diagonal. A Newton step has no step size, so Run ignores alpha.
func NewIRLSRunner(lr *tasks.LR, tbl *engine.Table) core.EpochRunner {
	return &irlsRunner{lr: lr, tbl: tbl}
}

func (r *irlsRunner) Run(_ int, w vector.Dense, _ float64) error {
	d, mu := r.lr.D, r.lr.Mu
	H := NewMatrix(d)
	g := vector.NewDense(d)
	err := r.tbl.Rows().Scan(func(tp engine.Tuple) error {
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
		return err
	}
	if mu > 0 {
		H.AddDiag(mu)
		for i := range g {
			g[i] += mu * w[i]
		}
	} else {
		H.AddDiag(1e-8) // numerical floor
	}
	step, err := H.Solve(g)
	if err != nil {
		return err
	}
	for i := range w {
		w[i] -= step[i]
	}
	return nil
}

func (r *irlsRunner) Loss(w vector.Dense) (float64, error) { return core.TotalLoss(r.lr, w, r.tbl) }
