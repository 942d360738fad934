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
// morsel-driven schedule of Leis et al. (SIGMOD 2014). w names the goroutine
// (0 ≤ w < workers), so fn may keep scratch per worker; one worker runs fn on
// the calling goroutine, block after block. Once a block fails no further
// block is claimed, and RunBlocks returns the error of the lowest failing
// block: blocks are claimed in order, so that is the block a sequential pass
// would have stopped at. A panic in fn is recovered into its block's error,
// so a bad row fails the statement, not the process. RunBlocks returns after
// every worker has.
func RunBlocks(workers, n int, fn func(w, b int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for b := range n {
			if err := Contain(func() error { return fn(0, b) }); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		low    = n
		lowErr error
	)
	work := func(w int) {
		for !failed.Load() {
			b := int(next.Add(1) - 1)
			if b >= n {
				return
			}
			if err := Contain(func() error { return fn(w, b) }); err != nil {
				failed.Store(true)
				mu.Lock()
				if b < low {
					low, lowErr = b, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	return lowErr
}

// Contain runs fn on the calling goroutine and turns a panic in it into its
// error, as RunBlocks does for each block, so a pass that runs a task's code
// on a statement's goroutine fails the statement, not the process.
func Contain(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: pass panicked: %v", r)
		}
	}()
	return fn()
}
