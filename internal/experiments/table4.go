package experiments

import (
	"context"
	"errors"
	"io"

	"bismarck/internal/baselines"
	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/tasks"
)

// RunTable4 reproduces the scalability grid: on the large datasets
// (Classify300M-, Matrix5B- and DBLP-style, scaled), does each tool finish
// within the time budget? ✓ = completes (reaches its convergence criterion
// in budget), X = exceeds the budget, N/A = the tool does not support the
// task. The paper's 48-hour wall is our cfg.Budget.
func RunTable4(w io.Writer, cfg Config) error {
	budget := cfg.budget()
	t := &Table{
		Title:  "Table 4: scalability within a " + budget.String() + " per-tool budget",
		Header: []string{"Task", "Bismarck(IGD)", "Newton/IRLS", "BatchGD", "ALS", "Notes"},
		Notes: []string{
			"OK = converged within budget; X = budget exceeded / infeasible; N/A = task unsupported by the algorithm.",
			"Generated data is stored in random order, so Bismarck trains as-stored (no shuffle pass needed).",
			"Paper: Bismarck completes all four tasks; native tools and in-memory tools fail on the complex ones.",
		},
	}

	classify := data.DenseClassification("classify", cfg.scale(300000), 50, 8, cfg.Seed+4)
	const mRows, mCols = 7060, 7060
	matrix := data.MovieLens(mRows, mCols, cfg.scale(500000), 10, 0.3, cfg.Seed+5)
	dblp := data.CoNLL(cfg.scale(2300), 20000, 9, 14, cfg.Seed+6)

	mark := func(converged bool, err error) string {
		switch {
		case err == nil && converged:
			return "OK"
		case errors.Is(err, context.DeadlineExceeded) || (err == nil && !converged):
			return "X"
		default:
			return "X (" + err.Error() + ")"
		}
	}

	// run trains one Bismarck plan under its own wall-clock budget.
	run := func(tr *core.Trainer, tbl *engineTable) (*core.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		tr.Ctx = ctx
		return tr.Run(tbl)
	}

	// --- LR on Classify300M-style ---
	{
		lr := tasks.NewLR(50)
		bres, berr := run(&core.Trainer{Task: lr, Step: core.GeometricStep{A0: 0.05, Rho: 0.8},
			MaxEpochs: 30, RelTol: 1e-3, Seed: cfg.Seed, PiggybackLoss: true}, classify)
		newton := &tasks.LR{D: 50, Mu: 1e-4}
		nres, nerr := baseline{task: newton, iters: 30, relTol: 1e-6, budget: budget}.
			drive(baselines.NewIRLSRunner(newton, classify), nil)
		gres, gerr := baseline{task: lr, alpha: 1, iters: 500, relTol: 1e-4, seed: cfg.Seed, budget: budget}.
			drive(baselines.NewBatchRunner(lr, classify, true))
		t.Add("LR", mark(bres != nil && bres.Converged, berr),
			mark(nres != nil && nres.Converged, nerr),
			mark(gres != nil && gres.Converged, gerr), "N/A",
			"dense d=50, n="+itoa(classify.NumRows()))
	}

	// --- SVM on Classify300M-style ---
	{
		svm := tasks.NewSVM(50)
		bres, berr := run(&core.Trainer{Task: svm, Step: core.GeometricStep{A0: 0.05, Rho: 0.8},
			MaxEpochs: 30, RelTol: 1e-3, Seed: cfg.Seed, PiggybackLoss: true}, classify)
		gres, gerr := baseline{task: svm, alpha: 0.5, iters: 500, relTol: 1e-5, seed: cfg.Seed, budget: budget}.
			drive(baselines.NewBatchRunner(svm, classify, false))
		t.Add("SVM", mark(bres != nil && bres.Converged, berr), "N/A",
			mark(gres != nil && gres.Converged, gerr), "N/A",
			"hinge loss; batch GD converges slowly without line search")
	}

	// --- LMF on Matrix5B-style ---
	{
		lmf := tasks.NewLMF(mRows, mCols, 10)
		bres, berr := run(&core.Trainer{Task: lmf, Step: core.GeometricStep{A0: 0.02, Rho: 0.85},
			MaxEpochs: 25, RelTol: 5e-3, Seed: cfg.Seed, PiggybackLoss: true}, matrix)
		als := tasks.NewLMF(mRows, mCols, 10)
		als.Mu = 0.05
		ares, aerr := baseline{task: als, iters: 60, relTol: 5e-3, seed: cfg.Seed, budget: budget}.
			drive(baselines.NewALSRunner(als, matrix))
		t.Add("LMF", mark(bres != nil && bres.Converged, berr), "N/A", "N/A",
			mark(ares != nil && ares.Converged, aerr),
			"706k x 706k shape (scaled cells), rank 10")
	}

	// --- CRF on DBLP-style ---
	{
		crf := tasks.NewCRF(20000, 9)
		bres, berr := run(&core.Trainer{Task: crf, Step: core.GeometricStep{A0: 0.1, Rho: 0.8},
			MaxEpochs: 45, RelTol: 1e-3, Seed: cfg.Seed, PiggybackLoss: true}, dblp)
		gres, gerr := baseline{task: crf, alpha: 1, iters: 200, relTol: 1e-5, seed: cfg.Seed, budget: budget}.
			drive(baselines.NewBatchRunner(crf, dblp, false))
		t.Add("CRF", mark(bres != nil && bres.Converged, berr), "N/A",
			mark(gres != nil && gres.Converged, gerr), "N/A",
			"sequence labeling; batch trainers need many full scans")
	}

	t.Print(w)
	return nil
}

func itoa(n int) string {
	// small local helper to avoid strconv import noise in the table body
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
