package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// ALS trains low-rank matrix factorization by alternating least squares,
// the MADlib-style LMF algorithm: holding R fixed, each L_i is the solution
// of a k×k ridge system over the row's observed cells, and vice versa. Per
// sweep it materializes the rating lists per row and per column and solves
// (rows+cols) dense k×k systems — much heavier machinery per pass than the
// IGD transition, which is how Bismarck ends up orders of magnitude faster
// on MovieLens-scale data (Figure 7A).
type ALS struct {
	Rows, Cols, Rank int
	Mu               float64 // ridge term (defaults to 1e-6 when 0)
	MaxSweeps        int
	RelTol           float64
	TargetLoss       float64
	Seed             int64
	// Deadline mirrors core.Trainer.Deadline.
	Deadline time.Time
}

// ALSResult reports a finished ALS run.
type ALSResult struct {
	// Model is flattened exactly like tasks.LMF: L rows then R rows.
	Model     vector.Dense
	Sweeps    int
	Losses    []float64
	Total     time.Duration
	Converged bool
}

type cell struct {
	other int
	v     float64
}

// Run trains on a RatingSchema table.
func (a *ALS) Run(tbl *engine.Table) (*ALSResult, error) {
	if a.MaxSweeps <= 0 {
		return nil, fmt.Errorf("baselines: ALS.MaxSweeps must be > 0")
	}
	mu := a.Mu
	if mu == 0 {
		mu = 1e-6
	}
	k := a.Rank
	// Materialize per-row and per-column rating lists (one scan).
	byRow := make([][]cell, a.Rows)
	byCol := make([][]cell, a.Cols)
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		i, j, v := int(tp[0].Int), int(tp[1].Int), tp[2].Float
		if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
			return fmt.Errorf("baselines: rating (%d,%d) outside %dx%d", i, j, a.Rows, a.Cols)
		}
		byRow[i] = append(byRow[i], cell{other: j, v: v})
		byCol[j] = append(byCol[j], cell{other: i, v: v})
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(a.Seed))
	L := make([]vector.Dense, a.Rows)
	R := make([]vector.Dense, a.Cols)
	for i := range L {
		L[i] = randVec(rng, k, 0.1)
	}
	for j := range R {
		R[j] = randVec(rng, k, 0.1)
	}

	lmf := tasks.NewLMF(a.Rows, a.Cols, a.Rank)
	res := &ALSResult{}
	start := time.Now()
	prevLoss := math.NaN()
	solveSide := func(target []vector.Dense, fixed []vector.Dense, lists [][]cell) error {
		for idx, cells := range lists {
			if len(cells) == 0 {
				continue
			}
			H := NewMatrix(k)
			b := make([]float64, k)
			for _, c := range cells {
				f := fixed[c.other]
				for p := 0; p < k; p++ {
					b[p] += c.v * f[p]
					hp := H.A[p*k:]
					for q := 0; q < k; q++ {
						hp[q] += f[p] * f[q]
					}
				}
			}
			H.AddDiag(mu)
			x, err := H.Solve(b)
			if err != nil {
				return err
			}
			copy(target[idx], x)
		}
		return nil
	}
	for sweep := 0; sweep < a.MaxSweeps; sweep++ {
		if !a.Deadline.IsZero() && time.Now().After(a.Deadline) {
			res.Model = a.flatten(L, R)
			res.Total = time.Since(start)
			return res, core.ErrDeadline
		}
		if err := solveSide(L, R, byRow); err != nil {
			return nil, err
		}
		if err := solveSide(R, L, byCol); err != nil {
			return nil, err
		}
		res.Sweeps = sweep + 1
		w := a.flatten(L, R)
		var loss float64
		err := tbl.Rows().Scan(func(tp engine.Tuple) error {
			loss += lmf.Loss(w, tp)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, loss)
		if a.TargetLoss != 0 && loss <= a.TargetLoss {
			res.Converged = true
			break
		}
		if a.RelTol > 0 && !math.IsNaN(prevLoss) && math.Abs(prevLoss-loss)/math.Max(math.Abs(prevLoss), 1) < a.RelTol {
			res.Converged = true
			break
		}
		prevLoss = loss
	}
	res.Model = a.flatten(L, R)
	res.Total = time.Since(start)
	return res, nil
}

func (a *ALS) flatten(L, R []vector.Dense) vector.Dense {
	w := vector.NewDense((a.Rows + a.Cols) * a.Rank)
	for i, l := range L {
		copy(w[i*a.Rank:], l)
	}
	for j, r := range R {
		copy(w[(a.Rows+j)*a.Rank:], r)
	}
	return w
}

func randVec(rng *rand.Rand, k int, scale float64) vector.Dense {
	v := vector.NewDense(k)
	for i := range v {
		v[i] = scale * rng.NormFloat64()
	}
	return v
}
