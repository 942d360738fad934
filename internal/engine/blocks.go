package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is how many goroutines a read-only pass runs on: one per core the
// runtime schedules on, so a process started with GOMAXPROCS=2 never plans
// for more.
func Workers() int { return runtime.GOMAXPROCS(0) }

// RunBlocks calls fn(w, b) once for every block b in [0, n), on min(workers,
// n) goroutines that claim blocks in increasing order from one counter — the
// morsel-driven schedule of Leis et al. (SIGMOD 2014). It is the one place a
// pass fans out: the open walk, the ordered build, the loss and EVALUATE
// sums, the segmented UDA and shared-memory plans, and the sharded epoch all
// run on it. w names the goroutine (0 ≤ w < workers), so fn may keep scratch
// per worker; worker 0 is the calling goroutine, and one worker runs every
// block there, in order. Once a block fails no further block is claimed, and
// RunBlocks returns the error of the lowest failing block: blocks are
// claimed in order, so that is the block a sequential pass would have
// stopped at. A panic in fn is recovered into its block's error, which
// names the block, so a bad row fails the statement, not the process.
// RunBlocks returns after every worker has.
func RunBlocks(workers, n int, fn func(w, b int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for b := range n {
			if err := runBlock(fn, 0, b); err != nil {
				return err
			}
		}
		return nil
	}
	r := &blockRun{fn: fn, n: n, low: n}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go r.work(w)
	}
	r.work(0)
	r.wg.Wait()
	return r.lowErr
}

// blockRun is one parallel RunBlocks call's shared state, kept in one
// allocation.
type blockRun struct {
	fn     func(w, b int) error
	n      int
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	low    int
	lowErr error
}

// work claims and runs blocks until none is left or one has failed.
func (r *blockRun) work(w int) {
	if w > 0 {
		defer r.wg.Done()
	}
	for !r.failed.Load() {
		b := int(r.next.Add(1) - 1)
		if b >= r.n {
			return
		}
		if err := runBlock(r.fn, w, b); err != nil {
			r.failed.Store(true)
			r.mu.Lock()
			if b < r.low {
				r.low, r.lowErr = b, err
			}
			r.mu.Unlock()
		}
	}
}

// runBlock runs one block, recovering a panic into an error naming it.
func runBlock(fn func(w, b int) error, w, b int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("engine: block %d panicked: %v", b, v)
		}
	}()
	return fn(w, b)
}

// Contain runs fn on the calling goroutine and turns a panic in it into its
// error, as RunBlocks does for each block. Session.Run runs every statement
// under it and a dist executor every request, so task code that runs on a
// goroutine its caller already owns fails its statement, not the process.
func Contain(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: pass panicked: %v", r)
		}
	}()
	return fn()
}
