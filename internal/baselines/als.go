package baselines

import (
	"fmt"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// alsRunner trains low-rank matrix factorization by alternating least
// squares, the MADlib-style LMF algorithm: holding R fixed, each L_i is the
// solution of a k×k ridge system over the row's observed cells, and vice
// versa. Per sweep it solves (rows+cols) dense k×k systems over rating
// lists materialized per row and per column — much heavier machinery per
// pass than the IGD transition, which is how Bismarck ends up orders of
// magnitude faster on MovieLens-scale data (Figure 7A).
type alsRunner struct {
	lmf          *tasks.LMF
	tbl          *engine.Table
	byRow, byCol [][]cell
}

type cell struct {
	other int
	v     float64
}

// NewALSRunner builds the ALS plan for lmf over a RatingSchema table,
// reading the per-row and per-column rating lists in one scan. The factors
// live in w in tasks.LMF's layout, so the run starts from the task's own
// initial model. The task's Mu is the ridge term (1e-6 when 0); ALS has no
// step size, so Run ignores alpha.
func NewALSRunner(lmf *tasks.LMF, tbl *engine.Table) (core.EpochRunner, error) {
	r := &alsRunner{lmf: lmf, tbl: tbl,
		byRow: make([][]cell, lmf.Rows), byCol: make([][]cell, lmf.Cols)}
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		i, j, v := int(tp[0].Int), int(tp[1].Int), tp[2].Float
		if i < 0 || i >= lmf.Rows || j < 0 || j >= lmf.Cols {
			return fmt.Errorf("baselines: rating (%d,%d) outside %dx%d", i, j, lmf.Rows, lmf.Cols)
		}
		r.byRow[i] = append(r.byRow[i], cell{other: j, v: v})
		r.byCol[j] = append(r.byCol[j], cell{other: i, v: v})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Run is one sweep: re-solve every row factor, then every column factor.
func (r *alsRunner) Run(_ int, w vector.Dense, _ float64) error {
	L, R := w[:r.lmf.Rows*r.lmf.Rank], w[r.lmf.Rows*r.lmf.Rank:]
	if err := r.solveSide(L, R, r.byRow); err != nil {
		return err
	}
	return r.solveSide(R, L, r.byCol)
}

// solveSide re-solves each factor of target against the fixed side; both
// are flattened k-vectors, one per row (or column).
func (r *alsRunner) solveSide(target, fixed vector.Dense, lists [][]cell) error {
	k, mu := r.lmf.Rank, r.lmf.Mu
	if mu == 0 {
		mu = 1e-6
	}
	for idx, cells := range lists {
		if len(cells) == 0 {
			continue
		}
		H := NewMatrix(k)
		b := make([]float64, k)
		for _, c := range cells {
			f := fixed[c.other*k : (c.other+1)*k]
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
		copy(target[idx*k:(idx+1)*k], x)
	}
	return nil
}

func (r *alsRunner) Loss(w vector.Dense) (float64, error) { return core.TotalLoss(r.lmf, w, r.tbl) }
