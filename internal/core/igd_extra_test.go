package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

func TestTrainerCanceledCtxRunsZeroEpochs(t *testing.T) {
	tbl := meanTable([]float64{1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &Trainer{Task: meanTask{}, Step: ConstantStep{A: 0.01}, MaxEpochs: 5,
		SkipLoss: true, Ctx: ctx}
	res, err := tr.Run(tbl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res.Epochs != 0 || len(res.EpochTimes) != 0 {
		t.Fatalf("epochs = %d (times %v), want 0", res.Epochs, res.EpochTimes)
	}
}

// quadTask is strictly convex in one variable with per-tuple loss ½(w−y)².
type quadTask = meanTask

func TestPiggybackLossTracksTrueLoss(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	tbl := meanTable(vals)
	// With a tiny step the model barely moves during the epoch, so the
	// piggybacked (pre-step) loss must be very close to the true loss at
	// the epoch's start.
	w0 := vector.Dense{10}
	truth, err := TotalLoss(quadTask{}, w0, tbl)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Task: quadTask{}, Step: ConstantStep{A: 1e-9}, MaxEpochs: 1,
		InitModel: w0, PiggybackLoss: true}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Losses[0]-truth) > 1e-6*truth {
		t.Fatalf("piggyback loss %v, true %v", res.Losses[0], truth)
	}
}

func TestPiggybackLossConvergesLikeTrueLoss(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 5
	}
	tbl := meanTable(vals)
	for _, piggy := range []bool{false, true} {
		tr := &Trainer{Task: quadTask{}, Step: DiminishingStep{A0: 0.5}, MaxEpochs: 100,
			RelTol: 1e-6, PiggybackLoss: piggy}
		res, err := tr.Run(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("piggy=%v did not converge", piggy)
		}
		if math.Abs(res.Model[0]-5) > 0.01 {
			t.Fatalf("piggy=%v converged to %v", piggy, res.Model[0])
		}
	}
}

func TestPiggybackLossMergesAcrossSegments(t *testing.T) {
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = 2
	}
	tbl := meanTable(vals)
	tr := &Trainer{Task: quadTask{}, Step: ConstantStep{A: 1e-9}, MaxEpochs: 1,
		InitModel: vector.Dense{1}, PiggybackLoss: true,
		Profile: engine.Profile{Segments: 4}}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * float64(len(vals)) // ½(1−2)² per tuple
	if math.Abs(res.Losses[0]-want) > 1e-3 {
		t.Fatalf("segmented piggyback loss = %v, want %v", res.Losses[0], want)
	}
}
