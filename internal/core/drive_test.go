package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"bismarck/internal/vector"
)

// scriptRunner is a fake plan: every Run adds alpha to w[0], every Loss
// returns the next scripted value (the last one repeats). Hooks let a case
// fail or stall a chosen pass.
type scriptRunner struct {
	losses    []float64
	onRun     func(epoch int) error
	onLoss    func(call int) error
	runs      int
	lossCalls int
}

func (s *scriptRunner) Run(epoch int, w vector.Dense, alpha float64) error {
	s.runs++
	if s.onRun != nil {
		if err := s.onRun(epoch); err != nil {
			return err
		}
	}
	w[0] += alpha
	return nil
}

func (s *scriptRunner) Loss(vector.Dense) (float64, error) {
	i := s.lossCalls
	s.lossCalls++
	if s.onLoss != nil {
		if err := s.onLoss(i); err != nil {
			return 0, err
		}
	}
	if i >= len(s.losses) {
		i = len(s.losses) - 1
	}
	return s.losses[i], nil
}

// TestDriveLoop pins the one epoch loop's contract against a scripted
// runner, so no plan needs its own copy of these assertions.
func TestDriveLoop(t *testing.T) {
	base := LoopConfig{Task: meanTask{}, Step: GeometricStep{A0: 1, Rho: 0.5}, MaxEpochs: 10}
	errBoom := errors.New("boom")

	t.Run("runs MaxEpochs with the step schedule from a cloned InitModel", func(t *testing.T) {
		cfg, init := base, vector.Dense{100}
		cfg.MaxEpochs, cfg.InitModel = 3, init
		r := &scriptRunner{losses: []float64{9, 8, 7}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epochs != 3 || res.Converged || len(res.Losses) != 3 || len(res.EpochTimes) != 3 {
			t.Fatalf("result %+v", res)
		}
		if res.Model[0] != 100+1+0.5+0.25 || init[0] != 100 {
			t.Fatalf("model %v (InitModel now %v): want alphas 1, .5, .25 applied to a copy", res.Model, init)
		}
		if res.FinalLoss() != 7 {
			t.Fatalf("final loss %g", res.FinalLoss())
		}
	})

	t.Run("RelTol stops on a small relative drop, never on the first epoch", func(t *testing.T) {
		cfg := base
		cfg.RelTol = 0.01
		r := &scriptRunner{losses: []float64{10, 5, 4.99, 1}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Epochs != 3 { // |5−4.99|/5 = 0.002 < 0.01
			t.Fatalf("epochs=%d converged=%v", res.Epochs, res.Converged)
		}
	})

	t.Run("a zero previous loss divides by one", func(t *testing.T) {
		cfg := base
		cfg.RelTol = 0.1
		r := &scriptRunner{losses: []float64{0, 0.05, 9}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Epochs != 2 { // |0−0.05|/1 < 0.1; /0 would never converge
			t.Fatalf("epochs=%d converged=%v", res.Epochs, res.Converged)
		}
	})

	t.Run("TargetLoss is checked first: it fires on epoch one, where RelTol cannot", func(t *testing.T) {
		cfg := base
		cfg.RelTol, cfg.TargetLoss = 0.5, 5
		r := &scriptRunner{losses: []float64{3}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Epochs != 1 {
			t.Fatalf("epochs=%d converged=%v", res.Epochs, res.Converged)
		}
	})

	t.Run("Ctx cancel returns the paired partial result", func(t *testing.T) {
		cfg := base
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx = ctx
		r := &scriptRunner{losses: []float64{1}, onRun: func(epoch int) error {
			if epoch == 2 {
				cancel()
			}
			return nil
		}}
		res, err := Drive(r, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		// Epoch 2's gradient pass is in the model; its loss was never
		// computed, so Losses and EpochTimes both stop at epoch 1.
		if res == nil || r.runs != 3 || r.lossCalls != 2 || res.Epochs != 3 || res.Model[0] != 1.75 ||
			len(res.Losses) != 2 || len(res.EpochTimes) != 2 || res.Total <= 0 {
			t.Fatalf("runs=%d loss calls=%d partial result %+v", r.runs, r.lossCalls, res)
		}
	})

	t.Run("Ctx cancel under SkipLoss stops before the next epoch", func(t *testing.T) {
		cfg := base
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx, cfg.SkipLoss = ctx, true
		r := &scriptRunner{losses: []float64{1}, onRun: func(epoch int) error {
			if epoch == 2 {
				cancel()
			}
			return nil
		}}
		res, err := Drive(r, cfg)
		if !errors.Is(err, context.Canceled) || res == nil || r.runs != 3 || res.Epochs != 3 ||
			len(res.Losses) != 0 || len(res.EpochTimes) != 3 {
			t.Fatalf("err=%v runs=%d partial result %+v", err, r.runs, res)
		}
	})

	t.Run("SkipLoss never evaluates the loss and never converges", func(t *testing.T) {
		cfg := base
		cfg.SkipLoss, cfg.RelTol, cfg.TargetLoss = true, 0.5, 1e9
		r := &scriptRunner{losses: []float64{0}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.lossCalls != 0 || res.Converged || res.Epochs != 10 || len(res.Losses) != 0 || len(res.EpochTimes) != 10 {
			t.Fatalf("loss calls=%d result %+v", r.lossCalls, res)
		}
		if !math.IsNaN(res.FinalLoss()) {
			t.Fatal("FinalLoss should be NaN when no losses recorded")
		}
	})

	t.Run("EpochTimes run from epoch start to loss known", func(t *testing.T) {
		cfg := base
		cfg.MaxEpochs = 2
		r := &scriptRunner{losses: []float64{1}, onLoss: func(int) error {
			time.Sleep(5 * time.Millisecond)
			return nil
		}}
		res, err := Drive(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e, d := range res.EpochTimes {
			if d < 5*time.Millisecond {
				t.Fatalf("EpochTimes[%d] = %v excludes the loss pass", e, d)
			}
		}
	})

	t.Run("runner errors propagate", func(t *testing.T) {
		r := &scriptRunner{losses: []float64{1}, onRun: func(epoch int) error {
			if epoch == 2 {
				return errBoom
			}
			return nil
		}}
		if res, err := Drive(r, base); !errors.Is(err, errBoom) || res != nil || r.runs != 3 {
			t.Fatalf("Run error: res=%v err=%v runs=%d", res, err, r.runs)
		}
		r = &scriptRunner{losses: []float64{1}, onLoss: func(int) error { return errBoom }}
		if res, err := Drive(r, base); !errors.Is(err, errBoom) || res != nil {
			t.Fatalf("Loss error: res=%v err=%v", res, err)
		}
	})

	t.Run("Task, Step and MaxEpochs are validated once, with one text", func(t *testing.T) {
		var texts []string
		for _, mutate := range []func(*LoopConfig){
			func(c *LoopConfig) { c.Task = nil },
			func(c *LoopConfig) { c.Step = nil },
			func(c *LoopConfig) { c.MaxEpochs = 0 },
		} {
			cfg, r := base, &scriptRunner{losses: []float64{1}}
			mutate(&cfg)
			_, err := Drive(r, cfg)
			if err == nil || r.runs != 0 {
				t.Fatalf("invalid config ran: err=%v runs=%d", err, r.runs)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] || texts[1] != texts[2] {
			t.Fatalf("error texts differ: %q", texts)
		}
	})
}
