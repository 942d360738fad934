package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"bismarck/internal/baselines"
	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/tasks"
)

// lmfTask builds the Figure 7A factorization task; a larger random init
// than the default gets the factors to the 1..5 rating scale faster.
func lmfTask(rows, cols int) *tasks.LMF {
	t := tasks.NewLMF(rows, cols, 10)
	t.InitScale = 0.5
	return t
}

// toolRun is one tool's outcome on one workload.
type toolRun struct {
	name string
	run  func() (loss float64, d time.Duration, err error)
}

// RunFig7A reproduces Figure 7(A): end-to-end runtime to convergence for
// Bismarck versus the algorithm classes behind the native tools. Every tool
// trains to its own 0.1% relative-loss-drop convergence (the criterion of
// §3.1/Appendix B); a tool only counts as finished if its final objective is
// within 5% of the best tool's (the paper "verified that all the tools
// compared achieved similar training quality").
func RunFig7A(w io.Writer, cfg Config) error {
	t := &Table{
		Title:  "Figure 7A: runtime (s) to 0.1%-relative-drop convergence, quality-checked",
		Header: []string{"Dataset", "Task", "Tool", "Time", "Final loss", "vs Bismarck"},
		Notes: []string{
			"Tools converge on their own 0.1% relative loss drop; X(quality) = stopped early with a >5% worse objective.",
			"Native-style stand-ins: IRLS (MADlib-style LR), batch GD (gradient-tool LR/SVM/LMF), ALS (matrix factorization).",
			"Paper: Bismarck beats MADlib/native tools 2-12x on LR/SVM and ~3 orders of magnitude on LMF;",
			"our ALS is a stronger baseline than 2012 native LMF tools, so the LMF gap is smaller here.",
		},
	}

	const relTol = 1e-3
	budget := cfg.budget() * 4

	forest := data.Forest(cfg.scale(581000), cfg.Seed)
	dblife := data.DBLife(cfg.scale(16000), 41000, 12, cfg.Seed+1)
	const mRows, mCols = 6040, 3952
	ml := data.MovieLens(mRows, mCols, cfg.scale(1000000), 10, 0.3, cfg.Seed+2)
	for _, tbl := range []*engine.Table{forest, dblife, ml} {
		if err := tbl.Flush(); err != nil {
			return err
		}
	}

	bismarck := func(task core.Task, tbl *engine.Table, step core.StepRule, epochs int) toolRun {
		return toolRun{name: "Bismarck", run: func() (float64, time.Duration, error) {
			tr := &core.Trainer{Task: task, Step: step, MaxEpochs: epochs,
				RelTol: relTol, Seed: cfg.Seed, Order: ordering.ShuffleOnce{}, PiggybackLoss: true}
			start := time.Now()
			res, err := tr.Run(tbl)
			if err != nil {
				return 0, 0, err
			}
			// Report the true objective for the quality check.
			loss, err := core.TotalLoss(task, res.Model, tbl)
			if err != nil {
				return 0, 0, err
			}
			return loss, time.Since(start), nil
		}}
	}
	batch := func(task core.Task, tbl *engine.Table, alpha float64) toolRun {
		return toolRun{name: "Batch GD", run: func() (float64, time.Duration, error) {
			start := time.Now()
			res, err := baseline{task: task, alpha: alpha, iters: 500, relTol: relTol, seed: cfg.Seed,
				budget: budget}.drive(baselines.NewBatchRunner(task, tbl, true))
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				return 0, 0, err
			}
			if res == nil || len(res.Losses) == 0 {
				return 0, 0, errors.New("no iterations completed in budget")
			}
			return res.FinalLoss(), time.Since(start), nil
		}}
	}

	type workload struct {
		dataset, task string
		tools         []toolRun
	}
	workloads := []workload{
		{
			dataset: "Forest", task: "LR",
			tools: []toolRun{
				bismarck(&tasks.LR{D: 54, Mu: 1e-4}, forest, core.GeometricStep{A0: 0.1, Rho: 0.7}, 40),
				{name: "IRLS (Newton)", run: func() (float64, time.Duration, error) {
					start := time.Now()
					lr := &tasks.LR{D: 54, Mu: 1e-4}
					res, err := baseline{task: lr, iters: 30, relTol: relTol, budget: budget}.
						drive(baselines.NewIRLSRunner(lr, forest), nil)
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						return 0, 0, err
					}
					if len(res.Losses) == 0 {
						return 0, 0, errors.New("no iterations in budget")
					}
					return res.FinalLoss(), time.Since(start), nil
				}},
			},
		},
		{
			dataset: "Forest", task: "SVM",
			tools: []toolRun{
				bismarck(tasks.NewSVM(54), forest, core.GeometricStep{A0: 0.1, Rho: 0.7}, 40),
				batch(tasks.NewSVM(54), forest, 1),
			},
		},
		{
			dataset: "DBLife", task: "LR",
			tools: []toolRun{
				bismarck(tasks.NewLR(41000), dblife, core.GeometricStep{A0: 0.5, Rho: 0.9}, 60),
				batch(tasks.NewLR(41000), dblife, 5),
			},
		},
		{
			dataset: "DBLife", task: "SVM",
			tools: []toolRun{
				bismarck(tasks.NewSVM(41000), dblife, core.GeometricStep{A0: 0.2, Rho: 0.9}, 60),
				batch(tasks.NewSVM(41000), dblife, 2),
			},
		},
		{
			dataset: "MovieLens", task: "LMF",
			tools: []toolRun{
				bismarck(lmfTask(mRows, mCols), ml, core.GeometricStep{A0: 0.04, Rho: 0.97}, 150),
				{name: "ALS", run: func() (float64, time.Duration, error) {
					start := time.Now()
					lmf := tasks.NewLMF(mRows, mCols, 10)
					lmf.Mu = 0.05
					res, err := baseline{task: lmf, iters: 60, relTol: relTol, seed: cfg.Seed, budget: budget}.
						drive(baselines.NewALSRunner(lmf, ml))
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						return 0, 0, err
					}
					if len(res.Losses) == 0 {
						return 0, 0, errors.New("no sweeps in budget")
					}
					// Report the objective the other tools are judged on, without
					// the ridge term ALS trains with.
					loss, err := core.TotalLoss(lmfTask(mRows, mCols), res.Model, ml)
					return loss, time.Since(start), err
				}},
				batch(lmfTask(mRows, mCols), ml, 0.02),
			},
		},
	}

	for _, wl := range workloads {
		type outcome struct {
			name string
			loss float64
			d    time.Duration
			err  error
		}
		outs := make([]outcome, 0, len(wl.tools))
		best := 0.0
		haveBest := false
		for _, tool := range wl.tools {
			loss, d, err := tool.run()
			outs = append(outs, outcome{tool.name, loss, d, err})
			if err == nil && (!haveBest || loss < best) {
				best, haveBest = loss, true
			}
		}
		// Quality band: LMF (non-convex) gets 10%, convex tasks 5%.
		band := 1.05
		if wl.task == "LMF" {
			band = 1.10
		}
		var bisTime time.Duration
		for _, o := range outs {
			if o.name == "Bismarck" && o.err == nil {
				bisTime = o.d
			}
		}
		for _, o := range outs {
			switch {
			case o.err != nil:
				t.Add(wl.dataset, wl.task, o.name, "X ("+o.err.Error()+")", "-", "-")
			case haveBest && o.loss > best*band:
				t.Add(wl.dataset, wl.task, o.name, "X (quality)", trimFloat(o.loss), "-")
			default:
				rel := "-"
				if bisTime > 0 {
					rel = fmt.Sprintf("%.1fx", float64(o.d)/float64(bisTime))
				}
				t.Add(wl.dataset, wl.task, o.name, secs(o.d), trimFloat(o.loss), rel)
			}
		}
	}
	t.Print(w)
	return nil
}
