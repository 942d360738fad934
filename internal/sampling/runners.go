package sampling

import (
	"fmt"
	"math/rand"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// reservoirRunner is the classical vendor approach for data too large to
// shuffle: draw one reservoir sample in a single pass, then run IGD epochs
// over the in-memory buffer only. It avoids shuffling but discards most of
// the data, adding estimation variance — the weakness MRS fixes.
type reservoirRunner struct {
	task core.Task
	tbl  *engine.Table
	buf  []engine.Tuple
}

// NewReservoirRunner samples bufCap tuples of tbl (one pass, rng seeded
// with seed) and returns the plan whose epochs step over that buffer; the
// loss is still the full-table objective.
func NewReservoirRunner(task core.Task, tbl *engine.Table, bufCap int, seed int64) (core.EpochRunner, error) {
	if bufCap <= 0 {
		return nil, fmt.Errorf("sampling: buffer capacity must be > 0, got %d", bufCap)
	}
	buf, err := SampleTable(tbl, bufCap, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &reservoirRunner{task: task, tbl: tbl, buf: buf}, nil
}

func (r *reservoirRunner) Run(_ int, w vector.Dense, alpha float64) error {
	dm := &core.DenseModel{W: w}
	for _, tp := range r.buf {
		r.task.Step(dm, tp, alpha)
	}
	return nil
}

func (r *reservoirRunner) Loss(w vector.Dense) (float64, error) {
	return core.TotalLoss(r.task, w, r.tbl)
}

// mrsRunner is multiplexed reservoir sampling (Figure 6) on one goroutine.
// Each pass the I/O side scans the table into a fresh reservoir, stepping
// on every tuple it drops, and the Memory side steps over the buffer the
// previous pass filled. The paper runs the two as concurrent workers on
// one NoLock model; interleaving their steps into the scan is one valid
// serialization of that Hogwild schedule (Niu et al.), and it repeats
// under the seed. The Memory side takes max(len(prev), prevRows−len(prev))
// steps a pass — as many as the I/O side took last pass, and at least one
// sweep of its buffer, so a buffer that holds the whole table still trains
// — spread evenly over the scan, the rest taken after it.
type mrsRunner struct {
	task   core.Task
	tbl    *engine.Table
	bufCap int
	rng    *rand.Rand

	prev     []engine.Tuple // the buffer the previous pass filled
	prevRows int            // the rows the previous pass scanned
}

// NewMRSRunner returns the MRS plan: a bufCap-tuple reservoir, sampled
// with an rng seeded with seed.
func NewMRSRunner(task core.Task, tbl *engine.Table, bufCap int, seed int64) (core.EpochRunner, error) {
	if bufCap <= 0 {
		return nil, fmt.Errorf("sampling: buffer capacity must be > 0, got %d", bufCap)
	}
	return &mrsRunner{task: task, tbl: tbl, bufCap: bufCap, rng: rand.New(rand.NewSource(seed))}, nil
}

func (r *mrsRunner) Run(_ int, w vector.Dense, alpha float64) error {
	dm := &core.DenseModel{W: w}
	budget, done := max(len(r.prev), r.prevRows-len(r.prev)), 0
	memSteps := func(upTo int) {
		for ; done < upTo; done++ {
			r.task.Step(dm, r.prev[done%len(r.prev)], alpha)
		}
	}
	resv := NewReservoir(r.bufCap, r.rng)
	rows := 0
	// ScanStable: the reservoir retains tuples, and MRS must not build a
	// cache for a table it exists to avoid holding twice.
	err := r.tbl.ScanStable(func(tp engine.Tuple) error {
		if dropped := resv.Offer(tp); dropped != nil {
			r.task.Step(dm, dropped, alpha)
		}
		rows++
		if budget > 0 {
			memSteps(min(budget, rows*budget/r.prevRows))
		}
		return nil
	})
	if err != nil {
		return err
	}
	memSteps(budget)
	r.prev, r.prevRows = resv.Items(), rows
	return nil
}

func (r *mrsRunner) Loss(w vector.Dense) (float64, error) {
	return core.TotalLoss(r.task, w, r.tbl)
}
