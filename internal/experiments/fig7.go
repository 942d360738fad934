package experiments

import (
	"context"
	"errors"

	"io"
	"time"

	"bismarck/internal/baselines"
	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/ordering"
	"bismarck/internal/tasks"
)

// RunFig7B reproduces Figure 7(B): CRF training progress (fraction of the
// optimal log-likelihood reached) against wall-clock time, comparing
// Bismarck's IGD against two batch-trainer stand-ins: an aggressive
// line-search batch GD ("CRF++-style") and a conservative fixed-step batch
// GD ("Mallet-style").
func RunFig7B(w io.Writer, cfg Config) error {
	tbl := data.CoNLL(cfg.scale(900), 8000, 9, 12, cfg.Seed+3)
	task := tasks.NewCRF(8000, 9)

	// Reference optimum: long IGD run.
	ref, err := (&core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.1, Rho: 0.9},
		MaxEpochs: 40, Seed: cfg.Seed, Order: ordering.ShuffleOnce{}}).Run(tbl)
	if err != nil {
		return err
	}
	opt := ref.FinalLoss()
	base0, err := core.TotalLoss(task, core.InitialModel(task, cfg.Seed), tbl)
	if err != nil {
		return err
	}
	frac := func(loss float64) float64 {
		p := 100 * (base0 - loss) / (base0 - opt)
		if p < 0 {
			p = 0
		}
		return p
	}
	toSeries := func(name string, losses []float64, times []time.Duration) (Series, float64) {
		s := Series{Name: name}
		var reached99 float64 = -1
		var cum float64
		for i, l := range losses {
			if times != nil {
				cum = times[i].Seconds()
			} else {
				cum = float64(i + 1) // fallback: epoch index
			}
			s.X = append(s.X, cum)
			s.Y = append(s.Y, frac(l))
			if reached99 < 0 && frac(l) >= 99 {
				reached99 = cum
			}
		}
		return s, reached99
	}

	// Bismarck IGD (fresh run, recording per-epoch cumulative time).
	bis, err := (&core.Trainer{Task: task, Step: core.GeometricStep{A0: 0.1, Rho: 0.9},
		MaxEpochs: 40, Seed: cfg.Seed, Order: ordering.ShuffleOnce{}}).Run(tbl)
	if err != nil {
		return err
	}
	cumBis := cumulative(bis.EpochTimes)

	crfpp, err := baseline{task: task, alpha: 8, iters: 60, seed: cfg.Seed, budget: cfg.budget()}.
		drive(baselines.NewBatchRunner(task, tbl, true))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	mallet, err := baseline{task: task, alpha: 1.5, iters: 120, seed: cfg.Seed, budget: cfg.budget()}.
		drive(baselines.NewBatchRunner(task, tbl, false))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}

	sb, tb := toSeries("Bismarck", bis.Losses, cumBis)
	sc, tc := toSeries("CRF++-style", crfpp.Losses, cumulative(crfpp.EpochTimes))
	sm, tm := toSeries("Mallet-style", mallet.Losses, cumulative(mallet.EpochTimes))
	PrintSeries(w, "Figure 7B: frac of optimal loglik (%) vs time (s), CRF on CoNLL-like data", "time(s)",
		Downsample(sb, 15), Downsample(sc, 15), Downsample(sm, 15))

	t := &Table{
		Title:  "Figure 7B: time (s) to reach 99% of optimal log-likelihood",
		Header: []string{"Tool", "Time(s)", "Paper shape"},
		Notes:  []string{"-1 means the tool never reached 99% within its iteration budget."},
	}
	t.Add("Bismarck", trimFloat(tb), "399s, fastest")
	t.Add("CRF++-style", trimFloat(tc), "466s, close second")
	t.Add("Mallet-style", trimFloat(tm), "1043s, slowest")
	t.Print(w)
	return nil
}

func cumulative(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	var c time.Duration
	for i, d := range ds {
		c += d
		out[i] = c
	}
	return out
}
