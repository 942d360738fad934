package parallel

import (
	"math"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/ordering"
	"bismarck/internal/tasks"
)

// TestCRFConcurrentSchemesTrackLock is Figure 9A's claim at the figure's
// own scale (225 CoNLL-like sequences, 2 workers, ShuffleOnce, 12 epochs):
// AIG and NoLock end every run within 5 % of Lock's final loss at the same
// seed. Each CRF step reads all L² transition weights, so a step that read
// them more than once while another worker wrote them would compute
// marginals that are no longer probabilities, and the run would diverge.
func TestCRFConcurrentSchemesTrackLock(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 15 CRF models")
	}
	task := tasks.NewCRF(8000, 9)
	for _, seed := range []int64{42, 43, 44} {
		tbl := data.CoNLL(225, 8000, 9, 12, seed+3)
		final := func(mode Mode) float64 {
			tr := &Trainer{Task: task, Step: core.GeometricStep{A0: 0.1, Rho: 0.9}, MaxEpochs: 12,
				Workers: 2, Mode: mode, Seed: seed, Order: ordering.ShuffleOnce{}}
			res, err := tr.Run(tbl)
			if err != nil {
				t.Fatalf("seed %d, %v: %v", seed, mode, err)
			}
			return res.FinalLoss()
		}
		lock := final(Lock)
		for _, mode := range []Mode{AIG, NoLock} {
			for run := range 2 {
				if got := final(mode); math.Abs(got-lock) > 0.05*lock {
					t.Errorf("seed %d, %v run %d: final loss %.1f, Lock's %.1f", seed, mode, run, got, lock)
				}
			}
		}
	}
}
