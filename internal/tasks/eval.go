package tasks

import (
	"fmt"
	"math"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// BinaryClassifier is implemented by tasks whose Predict-style score has a
// sign/threshold semantics (LR returns a probability, SVM a margin).
type BinaryClassifier interface {
	Predict(w vector.Dense, x engine.Value) float64
}

// BinaryMetrics summarizes binary classification quality on a labeled
// table.
type BinaryMetrics struct {
	N                 int
	TP, TN, FP, FN    int
	Accuracy          float64
	Precision, Recall float64
	F1                float64
}

// EvaluateBinary scores every (vec, label) row of a DenseExampleSchema or
// SparseExampleSchema table. `threshold` separates the two classes in the
// classifier's score space: 0.5 for LR probabilities, 0 for SVM margins.
// Over a fresh decoded-row cache the rows are counted in engine.BlockRows
// blocks on engine.Workers goroutines and the block counts added in block
// order; otherwise in one scan. Either way a panic in Predict fails the
// pass with an error.
func EvaluateBinary(c BinaryClassifier, w vector.Dense, tbl *engine.Table, threshold float64) (BinaryMetrics, error) {
	var m BinaryMetrics
	var err error
	if mat := tbl.CachedRows(); mat != nil {
		blocks := make([]BinaryMetrics, mat.Blocks())
		err = engine.RunBlocks(engine.Workers(), len(blocks), func(_, b int) error {
			var bm BinaryMetrics
			err := mat.ScanBlock(b, func(tp engine.Tuple) error {
				bm.count(c.Predict(w, tp[ColVec]) > threshold, tp[ColLabel].Float > 0)
				return nil
			})
			blocks[b] = bm
			return err
		})
		for _, bm := range blocks {
			m.N, m.TP, m.TN, m.FP, m.FN = m.N+bm.N, m.TP+bm.TP, m.TN+bm.TN, m.FP+bm.FP, m.FN+bm.FN
		}
	} else {
		// A panic fails the pass here too, as it does over the cache.
		err = engine.Contain(func() error {
			return tbl.Rows().Scan(func(tp engine.Tuple) error {
				m.count(c.Predict(w, tp[ColVec]) > threshold, tp[ColLabel].Float > 0)
				return nil
			})
		})
	}
	if err != nil {
		return m, err
	}
	if m.N == 0 {
		return m, fmt.Errorf("tasks: EvaluateBinary on empty table")
	}
	m.Accuracy = float64(m.TP+m.TN) / float64(m.N)
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m, nil
}

// count files one prediction against its label.
func (m *BinaryMetrics) count(pred, actual bool) {
	m.N++
	switch {
	case pred && actual:
		m.TP++
	case !pred && !actual:
		m.TN++
	case pred && !actual:
		m.FP++
	default:
		m.FN++
	}
}

// RMSE evaluates the root-mean-squared reconstruction error of an LMF model
// over a rating table.
func (t *LMF) RMSE(w vector.Dense, tbl *engine.Table) (float64, error) {
	var se float64
	n := 0
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		d := t.Predict(w, int(tp[0].Int), int(tp[1].Int)) - tp[2].Float
		se += d * d
		n++
		return nil
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("tasks: RMSE on empty table")
	}
	return math.Sqrt(se / float64(n)), nil
}

// TokenAccuracy evaluates a CRF model's Viterbi tagging accuracy over a
// sequence table, returning (correct, total).
func (t *CRF) TokenAccuracy(w vector.Dense, tbl *engine.Table) (correct, total int, err error) {
	err = tbl.Rows().Scan(func(tp engine.Tuple) error {
		pred := t.Decode(w, tp)
		gold := tp[3].Ints
		for i := range gold {
			total++
			if pred[i] == gold[i] {
				correct++
			}
		}
		return nil
	})
	return correct, total, err
}
