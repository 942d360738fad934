package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/parallel"
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

// mrsMemRatio caps the Memory worker at this multiple of the I/O worker's
// gradient steps. Without a cap, a fast memory worker loops the small
// buffer far more often than the I/O worker advances, over-weighting the
// buffered examples; the paper's setup naturally balances the two because
// the I/O worker runs at disk speed on its own core.
const mrsMemRatio = 1.0

// mrsRunner is multiplexed reservoir sampling (Figure 6): each epoch the
// I/O worker (Run's caller) scans the table, reservoir-sampling into one
// buffer while taking gradient steps on every dropped tuple; a Memory
// worker concurrently loops gradient steps over the buffer filled by the
// previous pass. The two buffers swap after each pass, and both workers
// update one shared model with NoLock (Hogwild) semantics. That model
// lives here, not in Drive's w, because the Memory worker keeps updating
// it between calls: w seeds it on the first pass and receives a snapshot
// after every pass.
type mrsRunner struct {
	task   core.Task
	tbl    *engine.Table
	bufCap int
	rng    *rand.Rand
	model  *parallel.AtomicModel // built on the first pass, before memBuf is first published

	// The Memory worker polls memBuf (an atomically published tuple slice)
	// and alphaBits, looping gradient steps until told to stop — the
	// paper's "signaled by polling a common integer".
	memBuf            atomic.Pointer[[]engine.Tuple]
	alphaBits         atomic.Uint64
	quit              atomic.Bool
	memSteps, ioSteps atomic.Int64

	// memErr is the Memory worker's panic, recovered into an error; the
	// worker stops there, and the next Run and the stop func return it.
	memErr atomic.Pointer[error]
}

// NewMRSRunner starts the Memory worker and returns the MRS plan plus the
// stop func that ends the worker, waits for it and returns its failure;
// call stop once training is over (it is what keeps EpochRunner at two
// methods).
func NewMRSRunner(task core.Task, tbl *engine.Table, bufCap int, seed int64) (core.EpochRunner, func() error, error) {
	if bufCap <= 0 {
		return nil, nil, fmt.Errorf("sampling: buffer capacity must be > 0, got %d", bufCap)
	}
	r := &mrsRunner{task: task, tbl: tbl, bufCap: bufCap, rng: rand.New(rand.NewSource(seed))}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		if err := engine.Contain(r.memoryWorker); err != nil {
			r.memErr.Store(&err)
		}
	}()
	return r, func() error {
		r.quit.Store(true)
		<-stopped
		return r.workerErr()
	}, nil
}

// workerErr is the Memory worker's failure, or nil.
func (r *mrsRunner) workerErr() error {
	if p := r.memErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (r *mrsRunner) memoryWorker() error {
	for !r.quit.Load() {
		bp := r.memBuf.Load()
		if bp == nil || len(*bp) == 0 {
			runtime.Gosched()
			continue
		}
		alpha := math.Float64frombits(r.alphaBits.Load())
		for _, tp := range *bp {
			if r.quit.Load() {
				return nil
			}
			if float64(r.memSteps.Load()) > mrsMemRatio*float64(r.ioSteps.Load()) {
				runtime.Gosched()
				continue
			}
			r.task.Step(r.model, tp, alpha)
			r.memSteps.Add(1)
		}
	}
	return nil
}

func (r *mrsRunner) Run(_ int, w vector.Dense, alpha float64) error {
	if err := r.workerErr(); err != nil {
		return err
	}
	if r.model == nil { // first pass: the Memory worker idles until the swap below
		r.model = parallel.NewAtomicModel(len(w), false)
		r.model.SetFrom(w)
	}
	r.alphaBits.Store(math.Float64bits(alpha))
	resv := NewReservoir(r.bufCap, r.rng)
	// ScanStable: the reservoir retains tuples, and MRS must not build a
	// cache for a table it exists to avoid holding twice.
	err := r.tbl.ScanStable(func(tp engine.Tuple) error {
		if dropped := resv.Offer(tp); dropped != nil {
			r.task.Step(r.model, dropped, alpha)
			r.ioSteps.Add(1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Swap: the buffer just filled becomes the Memory worker's input.
	items := resv.Items()
	r.memBuf.Store(&items)
	r.model.CopyTo(w)
	return nil
}

func (r *mrsRunner) Loss(w vector.Dense) (float64, error) {
	return core.TotalLoss(r.task, w, r.tbl)
}
