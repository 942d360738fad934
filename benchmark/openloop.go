package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// clock is the open-loop generator's view of time, measured from the start
// of the phase, so a test can drive the schedule with a fake.
type clock interface {
	Now() time.Duration
	WaitUntil(t time.Duration)
}

// realClock waits by sleeping the calling thread up to spinWindow short of
// the deadline and spinning the rest. It sleeps with nanosleep(2), not
// time.Sleep: the runtime's timers wake through epoll_wait, whose
// millisecond granularity is ten times the 100 µs interval of a 10 000
// req/s schedule. Spinning the whole interval is precise but holds a core,
// and on a two-core box the scheduler then parks the daemon's or the
// reader's wake-ups behind the spinner for a whole time slice (3-5 ms
// stalls that are the generator's doing, not the server's).
type realClock struct{ t0 time.Time }

// spinWindow covers nanosleep's overshoot once quietTimers has cut the
// thread's timer slack.
const spinWindow = 25 * time.Microsecond

func (c realClock) Now() time.Duration { return time.Since(c.t0) }

func (c realClock) WaitUntil(t time.Duration) {
	for {
		d := t - time.Since(c.t0)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
		}
	}
}

// quietTimers pins the calling goroutine to its thread, cuts that thread's
// timer slack from the default 50 µs to the minimum, so nanosleep returns
// within a few µs of its deadline, and, where the process may (root or
// CAP_SYS_NICE), gives the thread a real-time priority: beside a TRAIN
// statement both cores are busy, and a time-sharing sender then waits out
// other threads' slices (lateness p99 1.5-3.5 ms against a 200 µs limit;
// nice -20 does not help). The sender sleeps between requests, so it takes
// the core it wakes on for a few µs per request and no longer. Where the
// priority is refused the sender runs as before and its lateness is judged
// all the same. The returned function undoes all three.
func quietTimers() (restore func()) {
	const (
		prSetTimerslack = 29
		schedOther      = 0
		// Reset-on-fork keeps threads the runtime clones from this one
		// (it does, whenever the sender's write blocks) out of the
		// real-time class; without it they stay in it for good.
		schedFIFO = 1 | 0x40000000
	)
	setScheduler := func(policy, priority int32) {
		_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&priority)))
	}
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	setScheduler(schedFIFO, 1)
	return func() {
		setScheduler(schedOther, 0)
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) // 0 restores the default
		runtime.UnlockOSThread()
	}
}

// openLoop sends request i when it is due, i·interval after the phase
// started, whether or not earlier replies have arrived, and times every
// reply from its due time: a stall delays the requests queued behind it
// and each of them is charged the wait. One goroutine sends (the caller's)
// and one reads.
type openLoop struct {
	clk      clock
	interval time.Duration
	// n > 0 fixes the request count; n == 0 sends until stop is closed.
	n    int
	stop <-chan struct{}
	// send issues request i; recv returns the index of the next reply and
	// whether the server answered it with an error frame. abort unblocks a
	// pending recv after send failed (it closes the connection).
	send  func(i int) error
	recv  func() (i int, failed bool, err error)
	abort func()
}

// openResult is one open-loop phase: latencies of answered requests and
// the generator's own lateness (send time minus due time), both in µs.
type openResult struct {
	Sent   int
	Failed int
	// Latency[k] belongs to request Index[k]; requests answered with an
	// error frame appear in neither. Replies arrive in request order.
	Latency  []float64
	Index    []int
	Lateness []float64
}

func (o *openLoop) due(i int) time.Duration { return time.Duration(i) * o.interval }

// sendAll runs the schedule. total is stored before the final request is
// written, so the reader can never see the last reply while the count is
// still unknown.
func (o *openLoop) sendAll(total *atomic.Int64) ([]float64, error) {
	var lateness []float64
	if o.n > 0 {
		total.Store(int64(o.n))
		lateness = make([]float64, 0, o.n)
	}
	for i := 0; ; i++ {
		last := o.n > 0 && i == o.n-1
		if o.n == 0 {
			select {
			case <-o.stop:
				last = true
				total.Store(int64(i + 1))
			default:
			}
		}
		o.clk.WaitUntil(o.due(i))
		lateness = append(lateness, micros(o.clk.Now()-o.due(i)))
		if err := o.send(i); err != nil {
			return lateness, fmt.Errorf("open loop: send %d: %w", i, err)
		}
		if last {
			return lateness, nil
		}
	}
}

func (o *openLoop) run() (openResult, error) {
	var total atomic.Int64
	total.Store(-1)
	type readOut struct {
		lat    []float64
		idx    []int
		failed int
		err    error
	}
	done := make(chan readOut, 1)
	go func() {
		out := readOut{lat: make([]float64, 0, o.n), idx: make([]int, 0, o.n)}
		for got := int64(0); ; got++ {
			if t := total.Load(); t >= 0 && got >= t {
				break
			}
			i, failed, err := o.recv()
			if err != nil {
				out.err = fmt.Errorf("open loop: reply %d: %w", got, err)
				break
			}
			if failed {
				out.failed++
				continue
			}
			out.lat = append(out.lat, micros(o.clk.Now()-o.due(i)))
			out.idx = append(out.idx, i)
		}
		done <- out
	}()
	restore := quietTimers()
	lateness, sendErr := o.sendAll(&total)
	restore()
	if sendErr != nil {
		o.abort()
	}
	r := <-done
	res := openResult{Sent: len(lateness), Failed: r.failed, Latency: r.lat, Index: r.idx, Lateness: lateness}
	if sendErr != nil {
		return res, sendErr
	}
	return res, r.err
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
