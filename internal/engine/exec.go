package engine

import "fmt"

// Relation is the scan contract the executors run over: a physical table
// (page-granular segments, each decoded through a scratch of the scan's
// own), or a materialized row cache and its logically-ordered views
// (row-granular segments, zero decode). Either way the tuple a scan hands
// out is overwritten by the next row: consumers must not retain tuples past
// the callback, and one that keeps a row keeps its Clone.
type Relation interface {
	// Scan visits every tuple in the relation's order.
	Scan(fn func(Tuple) error) error
	// ScanSegment visits the tuples of one segment; segment bounds come
	// from Segments and are page ranges for tables, row ranges for caches.
	ScanSegment(from, to int, fn func(Tuple) error) error
	// Segments splits the relation into n contiguous ranges of roughly
	// equal size for parallel scanning.
	Segments(n int) ([][2]int, error)
}

// Compile-time checks: all scan providers satisfy the contract.
var (
	_ Relation = (*Table)(nil)
	_ Relation = (*Materialized)(nil)
	_ Relation = (*MatView)(nil)
)

// RunUDA executes a user-defined aggregate over a relation under an engine
// profile: the standard aggregation query plan. A *Table decodes each row
// into its scan's scratch and a cache loads each into one, so a UDA that
// retains a row keeps its Clone. With Segments == 1 the scan is sequential;
// otherwise the engine's built-in shared-nothing parallelism is used — each
// segment aggregates independently, one RunBlocks block a segment, and the
// states are merged left-to-right, which requires the UDA to implement
// Merger.
func RunUDA(r Relation, u UDA, p Profile) (State, error) {
	if p.Segments <= 1 {
		s := u.Initialize()
		err := r.Scan(func(tp Tuple) error {
			spin(p.PerCallOverhead)
			s = u.Transition(s, tp)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return u.Terminate(s), nil
	}

	m, ok := u.(Merger)
	if !ok {
		return nil, fmt.Errorf("engine: %d-segment plan requires a merge function", p.Segments)
	}
	segs, err := r.Segments(p.Segments)
	if err != nil {
		return nil, err
	}
	states := make([]State, len(segs))
	err = RunBlocks(len(segs), len(segs), func(_, i int) error {
		s := u.Initialize()
		err := r.ScanSegment(segs[i][0], segs[i][1], func(tp Tuple) error {
			spin(p.PerCallOverhead)
			s = u.Transition(s, tp)
			return nil
		})
		states[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	s := states[0]
	for _, s2 := range states[1:] {
		if p.StateCopyPerMerge {
			s = m.Merge(copyState(s), copyState(s2))
		} else {
			s = m.Merge(s, s2)
		}
	}
	return u.Terminate(s), nil
}

// StateCopier lets a UDA state participate in the serialization overhead
// emulation of DBMS A's pure-UDA plan.
type StateCopier interface {
	CopyState() State
}

func copyState(s State) State {
	if c, ok := s.(StateCopier); ok {
		return c.CopyState()
	}
	return s
}

// RunSharedScan drives the shared-memory UDA plan over a relation: it splits
// it into `workers` segments, scans them concurrently as one RunBlocks block
// each, and delivers tuples to fn with the segment's index. The aggregation
// state lives in shared memory owned by the caller (the model), which is
// exactly how the paper's shared-memory variant keeps the three-function
// abstraction while updating one model concurrently; the concurrency scheme
// (Lock / AIG / NoLock) is the caller's choice of model representation.
func RunSharedScan(r Relation, workers int, p Profile, fn func(worker int, tp Tuple) error) error {
	if workers <= 1 {
		return r.Scan(func(tp Tuple) error {
			spin(p.PerCallOverhead)
			return fn(0, tp)
		})
	}
	segs, err := r.Segments(workers)
	if err != nil {
		return err
	}
	return RunBlocks(len(segs), len(segs), func(_, i int) error {
		return r.ScanSegment(segs[i][0], segs[i][1], func(tp Tuple) error {
			spin(p.PerCallOverhead)
			return fn(i, tp)
		})
	})
}
