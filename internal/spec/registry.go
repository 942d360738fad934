package spec

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// BuildInput is what a task constructor gets: the bound WITH parameters
// and the data view already projected into the task's canonical layout, so
// the constructor can infer dimensions (feature width, matrix extent, ...)
// that the statement did not pin down.
type BuildInput struct {
	Params Params
	View   *engine.Table
}

// TaskSpec is one task's registration: everything the statement layer
// needs to parse, type-check, construct, train, persist, and score the
// task — the single registration point that replaces per-task switch
// statements in the dispatch path.
type TaskSpec struct {
	// Name is the canonical registry key (lowercase), e.g. "lr".
	Name string
	// Aliases are alternative names accepted by TO TRAIN.
	Aliases []string
	// Summary is a one-line description shown by SHOW TASKS.
	Summary string
	// Schema is the canonical training layout the source rows are
	// projected into (vector-typed columns adapt to the source's
	// dense/sparse flavor).
	Schema engine.Schema
	// Params are the task-specific WITH parameters.
	Params []ParamSpec
	// DefaultAlpha is the task's preferred initial step size when the
	// statement sets none (0 picks the session default).
	DefaultAlpha float64
	// ExtraSolvers lists non-IGD solvers this task supports besides the
	// universal "igd" and "batch" (e.g. "irls" for LR, "als" for LMF).
	ExtraSolvers []string
	// Build constructs the task, inferring missing params from the view.
	Build func(in BuildInput) (core.Task, error)
	// Snapshot extracts the fully-resolved constructor parameters from a
	// built task, persisted as model metadata so PREDICT / EVALUATE can
	// rebuild the identical task later.
	Snapshot func(t core.Task) map[string]string
	// Predict, when non-nil, scores one tuple of the canonical layout with
	// a trained model. PREDICT statements fail on tasks without it.
	Predict func(t core.Task, w vector.Dense, tp engine.Tuple) float64
	// DefaultThreshold separates classes in Predict's score space when the
	// statement sets no threshold (0.5 for LR probabilities, 0 for
	// margins).
	DefaultThreshold float64
	// Agrees, when non-nil, reports whether a prediction score matches the
	// example's label (sign agreement for binary tasks, exact class match
	// for multiclass); it powers the accuracy summary when the scored view
	// carries labels. threshold is the statement's resolved decision
	// threshold, so positives and accuracy use one decision rule.
	Agrees func(score, threshold, label float64) bool
	// Evaluate, when non-nil, writes task-appropriate quality metrics for
	// the model over the view; nil falls back to the total objective loss.
	// threshold is the statement's WITH threshold (NaN = task default).
	Evaluate func(t core.Task, w vector.Dense, view *engine.Table, threshold float64, out io.Writer) error
}

// SupportsSolver reports whether the task accepts the given solver.
func (ts *TaskSpec) SupportsSolver(name string) bool {
	if name == "igd" || name == "batch" {
		return true
	}
	for _, s := range ts.ExtraSolvers {
		if s == name {
			return true
		}
	}
	return false
}

var registry = struct {
	sync.RWMutex
	byName map[string]*TaskSpec
	order  []string
}{byName: map[string]*TaskSpec{}}

// Register adds a task spec to the registry; tasks call it from init().
// It panics on duplicate or malformed registrations (a programming error).
// The returned func removes the spec again, so a test that registers a
// task of its own can leave the registry as it found it.
func Register(ts TaskSpec) (unregister func()) {
	if ts.Name == "" || ts.Build == nil || len(ts.Schema) == 0 {
		panic(fmt.Sprintf("spec: invalid registration %+v", ts))
	}
	ts.Name = strings.ToLower(ts.Name)
	keys := append([]string{ts.Name}, ts.Aliases...)
	registry.Lock()
	defer registry.Unlock()
	for _, key := range keys {
		key = strings.ToLower(key)
		if _, dup := registry.byName[key]; dup {
			panic(fmt.Sprintf("spec: duplicate task registration %q", key))
		}
		registry.byName[key] = &ts
	}
	registry.order = append(registry.order, ts.Name)
	return func() {
		registry.Lock()
		defer registry.Unlock()
		for _, key := range keys {
			delete(registry.byName, strings.ToLower(key))
		}
		registry.order = slices.DeleteFunc(registry.order, func(n string) bool { return n == ts.Name })
	}
}

// Lookup resolves a task name (or alias, case-insensitive) to its spec.
func Lookup(name string) (*TaskSpec, error) {
	registry.RLock()
	defer registry.RUnlock()
	ts, ok := registry.byName[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("spec: unknown task %q (known: %s)",
			name, strings.Join(registry.order, ", "))
	}
	return ts, nil
}

// Tasks returns all registered specs sorted by name.
func Tasks() []*TaskSpec {
	registry.RLock()
	defer registry.RUnlock()
	names := append([]string(nil), registry.order...)
	sort.Strings(names)
	out := make([]*TaskSpec, len(names))
	for i, n := range names {
		out[i] = registry.byName[n]
	}
	return out
}

// --- inference helpers for Build hooks ---

// errNoView reports an inference attempt with no data view — the point-
// PREDICT path rebuilds tasks from persisted metadata alone, which carries
// every parameter of a committed model; reaching inference there means the
// metadata is incomplete (or hand-edited), so fail with a diagnosis rather
// than a nil dereference.
func errNoView(what string) error {
	return fmt.Errorf("spec: cannot infer %s without a data view (model metadata incomplete?)", what)
}

// InferVecDim returns the maximum dimension of the view's column (dense or
// sparse vectors): from the slab offsets of a fresh cache, else by a scan.
func InferVecDim(tbl *engine.Table, col int) (int, error) {
	if tbl == nil {
		return 0, errNoView("the feature dimension")
	}
	dim := 0
	if m := tbl.CachedRows(); m != nil {
		dim = m.VecDim(col)
	} else if err := tbl.Scan(func(tp engine.Tuple) error {
		switch tp[col].Type {
		case engine.TDenseVec:
			dim = max(dim, len(tp[col].Dense))
		case engine.TSparseVec:
			dim = max(dim, tp[col].Sparse.MaxIdx())
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if dim == 0 {
		return 0, fmt.Errorf("spec: no feature vectors found in %s.%s",
			tbl.Name, tbl.Schema[col].Name)
	}
	return dim, nil
}

// InferMaxInt returns max(col)+1 over the view — the extent of a 0-based
// index column (matrix rows/cols, vertex ids, class labels).
func InferMaxInt(tbl *engine.Table, col int) (int, error) {
	if tbl == nil {
		return 0, errNoView("an index-column extent")
	}
	maxV := int64(-1)
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		v := tp[col].Int
		if tp[col].Type == engine.TFloat64 {
			v = int64(tp[col].Float)
		}
		if v > maxV {
			maxV = v
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if maxV < 0 {
		return 0, fmt.Errorf("spec: cannot infer extent of empty %s.%s",
			tbl.Name, tbl.Schema[col].Name)
	}
	return int(maxV + 1), nil
}

// InferMaxInt32 returns max over all entries of an int32-vector column,
// plus one (the extent of CRF feature/label id spaces).
func InferMaxInt32(tbl *engine.Table, col int) (int, error) {
	if tbl == nil {
		return 0, errNoView("an id-space extent")
	}
	maxV := int32(-1)
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		for _, v := range tp[col].Ints {
			if v > maxV {
				maxV = v
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if maxV < 0 {
		return 0, fmt.Errorf("spec: cannot infer extent of empty %s.%s",
			tbl.Name, tbl.Schema[col].Name)
	}
	return int(maxV + 1), nil
}
