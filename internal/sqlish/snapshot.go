package sqlish

import (
	"fmt"
	"math"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/vector"
)

// ModelSnapshot is one persisted model decoded for serving: the dense
// coefficient vector, the task rebuilt from the metadata side table, and a
// precomputed inline-tuple layout. A snapshot is immutable after
// LoadSnapshot returns — concurrent scorers share it freely, each bringing
// its own PointScratch — which is what lets the serve package publish
// snapshots through an atomic pointer and never lock on the hot path.
type ModelSnapshot struct {
	Model string
	Spec  *spec.TaskSpec
	Task  core.Task
	W     vector.Dense
	// Threshold is the task's default decision threshold (point scoring
	// returns raw scores; the threshold is exported for front ends that
	// want to render a class).
	Threshold float64

	layout pointLayout
}

// pointLayout maps the flat value list of PREDICT (v1, v2, ...) onto the
// task's canonical tuple layout, precomputed once per snapshot so scoring
// does no schema walking. Two shapes exist: vector layout (all values form
// one dense feature vector — the classification family) and scalar layout
// (each value fills one scalar column positionally — lmf's (row, col)).
type pointLayout struct {
	ok     bool
	reason string // why point scoring is unsupported when !ok
	arity  int    // required value count; 0 = any n >= 1 (vector layout)
	vecCol int    // tuple index of the dense feature vector; -1 = scalar layout
	// scalarCols[i] is the tuple index value i fills (scalar layout).
	scalarCols []int
	// leadID: tuple index 0 is a synthesized id/t int64 column.
	leadID bool
	n      int // tuple arity of the canonical schema
}

// buildPointLayout derives the inline-tuple layout from a task schema.
// Rules: a leading (id|t) int64 column is synthesized as 0; the trailing
// column (label / rating / target) is zero-filled; the remaining columns
// are the value targets — one vector column takes all values, otherwise
// each scalar column takes one value positionally.
func buildPointLayout(ts *spec.TaskSpec) pointLayout {
	if ts.Predict == nil {
		return pointLayout{reason: fmt.Sprintf("task %s does not support PREDICT (use TO EVALUATE)", ts.Name)}
	}
	schema := ts.Schema
	n := len(schema)
	if n < 2 {
		return pointLayout{reason: fmt.Sprintf("task %s schema is too narrow for point PREDICT", ts.Name)}
	}
	lo := pointLayout{vecCol: -1, n: n}
	first := 0
	if schema[0].Type == engine.TInt64 && (schema[0].Name == "id" || schema[0].Name == "t") {
		lo.leadID = true
		first = 1
	}
	// Targets are columns [first, n-1); the last column is the label slot.
	for i := first; i < n-1; i++ {
		switch schema[i].Type {
		case engine.TDenseVec, engine.TSparseVec:
			if lo.vecCol >= 0 || len(lo.scalarCols) > 0 {
				return pointLayout{reason: fmt.Sprintf("task %s mixes vector and scalar feature columns; point PREDICT is not supported", ts.Name)}
			}
			lo.vecCol = i
		case engine.TInt64, engine.TFloat64:
			if lo.vecCol >= 0 {
				return pointLayout{reason: fmt.Sprintf("task %s mixes vector and scalar feature columns; point PREDICT is not supported", ts.Name)}
			}
			lo.scalarCols = append(lo.scalarCols, i)
		default:
			return pointLayout{reason: fmt.Sprintf("task %s column %q is not point-addressable", ts.Name, schema[i].Name)}
		}
	}
	if lo.vecCol < 0 && len(lo.scalarCols) == 0 {
		return pointLayout{reason: fmt.Sprintf("task %s has no feature columns for point PREDICT", ts.Name)}
	}
	if lo.vecCol < 0 {
		lo.arity = len(lo.scalarCols)
	}
	lo.ok = true
	return lo
}

// LoadSnapshot decodes the persisted model into a serving snapshot. The
// metadata, coefficients and returned generation come from one locked
// read (readModel, shared with restore), so snapshot and generation
// always belong together. A never-trained (or dropped) model surfaces as
// *UnknownModelError.
//
// The task is rebuilt from metadata alone (no data view): a committed
// model's metadata carries its fully-resolved constructor parameters, so
// the Build hook never reaches dimension inference. This is what makes a
// cache fill independent of any table scan — loadModel becomes the fill.
func (s *Session) LoadSnapshot(model string) (*ModelSnapshot, uint64, error) {
	taskName, kv, w, gen, err := s.readModel(model)
	if err != nil {
		return nil, 0, err
	}
	ts, err := spec.Lookup(taskName)
	if err != nil {
		return nil, 0, err
	}
	params, err := spec.RebindStrings(ts.Params, kv)
	if err != nil {
		return nil, 0, err
	}
	task, err := ts.Build(spec.BuildInput{Params: params})
	if err != nil {
		return nil, 0, err
	}
	if task.Dim() > len(w) {
		padded := vector.NewDense(task.Dim())
		copy(padded, w)
		w = padded
	}
	threshold := ts.DefaultThreshold
	snap := &ModelSnapshot{Model: model, Spec: ts, Task: task, W: w,
		Threshold: threshold, layout: buildPointLayout(ts)}
	return snap, gen, nil
}

// PointScratch is one scorer's reusable working set: the canonical tuple
// and the dense feature vector it points into. Score rebuilds both in
// place, so steady-state scoring allocates nothing once the scratch has
// grown to the largest tuple seen. A scratch is single-goroutine state;
// snapshots are the shared part.
type PointScratch struct {
	tuple engine.Tuple
	vec   vector.Dense
}

// Score scores one inline value tuple against the snapshot, returning the
// task's raw score (probability for lr, margin for svm/lsq, predicted
// rating for lmf). It takes no locks and, in steady state, performs zero
// heap allocations — the serving plane's hot path.
func (sc *PointScratch) Score(snap *ModelSnapshot, vals []float64) (float64, error) {
	lo := &snap.layout
	if !lo.ok {
		return 0, fmt.Errorf("sqlish: %s", lo.reason)
	}
	if lo.arity > 0 && len(vals) != lo.arity {
		return 0, fmt.Errorf("sqlish: PREDICT tuple has %d values, task %s wants %d",
			len(vals), snap.Spec.Name, lo.arity)
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("sqlish: PREDICT needs at least one value")
	}
	if cap(sc.tuple) < lo.n {
		sc.tuple = make(engine.Tuple, lo.n)
	}
	tp := sc.tuple[:lo.n]
	for i := range tp {
		tp[i] = engine.Value{}
	}
	if lo.leadID {
		tp[0] = engine.I64(0)
	}
	tp[lo.n-1] = engine.F64(0) // label slot: unused by Predict hooks
	if lo.vecCol >= 0 {
		if cap(sc.vec) < len(vals) {
			sc.vec = vector.NewDense(len(vals))
		}
		v := sc.vec[:len(vals)]
		copy(v, vals)
		tp[lo.vecCol] = engine.DenseV(v)
	} else {
		for i, col := range lo.scalarCols {
			if snap.Spec.Schema[col].Type == engine.TInt64 {
				if vals[i] != math.Trunc(vals[i]) {
					return 0, fmt.Errorf("sqlish: PREDICT value %d must be an integer for %s column %q",
						i+1, snap.Spec.Name, snap.Spec.Schema[col].Name)
				}
				tp[col] = engine.I64(int64(vals[i]))
			} else {
				tp[col] = engine.F64(vals[i])
			}
		}
	}
	return snap.Spec.Predict(snap.Task, snap.W, tp), nil
}
