package serve

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"bismarck/internal/wire"
)

// ErrCanceled reports a request whose cancel channel closed while it was
// queued for a slot (or before it started): it held no slot when it
// returned and ran nothing.
var ErrCanceled = errors.New("serve: canceled while queued for a slot")

// Gate is the admission controller: Inflight concurrent scoring slots and
// a bounded count of waiters. Admission is decided synchronously — a full
// queue sheds before anything waits — so a connection reader can shed
// load before spawning any per-request work. This bounds both goroutines
// and memory under overload.
type Gate struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64

	// ewmaNS is an exponentially-weighted moving average of observed
	// service times, feeding the retry-after hint. samples counts the
	// observations folded in, so an EWMA of zero is distinguishable from
	// "never served anything" and the hint can report honestly on an idle
	// gate; lastNS is the wall-clock of the newest sample, letting the
	// hint decay a stale EWMA instead of quoting service times from hours
	// ago.
	ewmaNS  atomic.Int64
	samples atomic.Uint64
	lastNS  atomic.Int64
}

// NewGate builds a gate with the given slot and queue sizes. inflight
// defaults to GOMAXPROCS, maxQueue to 4× inflight.
func NewGate(inflight, maxQueue int) *Gate {
	if inflight <= 0 {
		inflight = runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = 4 * inflight
	}
	return &Gate{
		slots:    make(chan struct{}, inflight),
		maxQueue: int64(maxQueue),
	}
}

// Ticket is one admitted request's claim on the gate: WaitOrCancel blocks
// until a slot is free, Release returns it; a value (no allocation), it
// must not be copied after the wait. Do pairs the two; the server's job
// scheduler calls Admit, WaitOrCancel and Release across a job's life.
type Ticket struct {
	g      *Gate
	inQ    bool
	booked bool
	start  int64 // nanotime via time.Now().UnixNano(), set by WaitOrCancel
}

// Do admits one request, waits for a slot (or returns ErrCanceled when
// cancel closes first; a nil cancel never fires), runs fn holding the
// slot, and releases it in a defer — a panicking fn frees its slot too. A
// full queue sheds with *wire.BusyError before anything waits.
func (g *Gate) Do(cancel <-chan struct{}, fn func()) error {
	t, err := g.Admit()
	if err != nil {
		return err
	}
	if !t.WaitOrCancel(cancel) {
		return ErrCanceled
	}
	defer t.Release()
	fn()
	return nil
}

// Admit decides synchronously whether this request may proceed. A free
// slot admits immediately; otherwise the request joins the wait queue if
// it has room, and is rejected with *wire.BusyError when it does not.
func (g *Gate) Admit() (Ticket, error) {
	select {
	case g.slots <- struct{}{}:
		return Ticket{g: g, booked: true}, nil
	default:
	}
	if q := g.queued.Add(1); q > g.maxQueue {
		g.queued.Add(-1)
		return Ticket{}, &wire.BusyError{RetryAfterMS: g.retryAfterMS()}
	}
	return Ticket{g: g, inQ: true}, nil
}

// admitQueued admits as a waiter only: it books a queue position (or
// sheds) but never takes a slot, even if one is free — the slot is
// acquired later by WaitOrCancel. The two-level plane needs this for a
// request whose global admission is queued: taking this gate's slot while
// not holding a global slot would break the global-before-model slot
// order that keeps the two-level protocol deadlock-free.
func (g *Gate) admitQueued() (Ticket, error) {
	if q := g.queued.Add(1); q > g.maxQueue {
		g.queued.Add(-1)
		return Ticket{}, &wire.BusyError{RetryAfterMS: g.retryAfterMS()}
	}
	return Ticket{g: g, inQ: true}, nil
}

// WaitOrCancel blocks until the admitted request holds a scoring slot and
// starts its service-time clock, or gives up when cancel closes first,
// returning false with the ticket's queue booking released — the caller
// owns no slot and must not Release. A nil cancel never fires. This is the
// teardown path for pipelined connections: a client that disconnects
// while its frames are queued must not keep burning scoring slots on
// answers nobody will read.
func (t *Ticket) WaitOrCancel(cancel <-chan struct{}) bool {
	if t.inQ {
		select {
		case t.g.slots <- struct{}{}:
			t.g.queued.Add(-1)
			t.inQ = false
			t.booked = true
		case <-cancel:
			t.g.queued.Add(-1)
			t.inQ = false
			return false
		}
	}
	t.start = time.Now().UnixNano()
	return true
}

// abandon returns an admitted-but-unserved ticket to the gate: a queue
// booking is released, a held slot is freed without feeding the EWMA (no
// service happened, so there is no service time to observe). Safe on a
// zero ticket and after WaitOrCancel returned false.
func (t *Ticket) abandon() {
	if t.inQ {
		t.inQ = false
		t.g.queued.Add(-1)
		return
	}
	if t.booked {
		t.booked = false
		<-t.g.slots
	}
}

// Release frees the slot and feeds the observed service time into the
// EWMA behind the retry-after hint.
func (t *Ticket) Release() {
	if !t.booked {
		return
	}
	t.booked = false
	t.g.observe(time.Now().UnixNano() - t.start)
	<-t.g.slots
}

// observe folds one service time into the EWMA (α = 1/8, integer math).
// The update is a CAS loop — a racy load/store here loses samples when
// releases collide, which under load is exactly when every sample counts.
// The step is floored at ±1ns so a run of fast observations can actually
// walk the EWMA back to zero (plain old+(ns-old)/8 truncates toward zero
// and sticks at small values forever).
func (g *Gate) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	g.lastNS.Store(time.Now().UnixNano())
	if g.samples.Add(1) == 1 {
		g.ewmaNS.Store(ns)
		return
	}
	for {
		old := g.ewmaNS.Load()
		delta := (ns - old) / 8
		if delta == 0 && ns != old {
			if ns < old {
				delta = -1
			} else {
				delta = 1
			}
		}
		if g.ewmaNS.CompareAndSwap(old, old+delta) {
			return
		}
	}
}

// decayedEWMA returns the EWMA with idle decay applied: halved for every
// full second since the last sample, so a gate that served something hours
// ago stops quoting that era's service times. Reads only; the stored EWMA
// is left alone (the next real sample re-anchors it).
func (g *Gate) decayedEWMA(nowNS int64) int64 {
	ewma := g.ewmaNS.Load()
	if ewma <= 0 {
		return 0
	}
	idle := nowNS - g.lastNS.Load()
	if idle < int64(time.Second) {
		return ewma
	}
	halvings := idle / int64(time.Second)
	if halvings > 62 {
		return 0
	}
	return ewma >> uint(halvings)
}

// retryAfterMS estimates how long a shed client should back off: the
// backlog ahead of it (all slots plus all waiters) times the average
// service time, divided across the slots draining it. At least 1ms so
// clients never busy-loop on a zero hint.
func (g *Gate) retryAfterMS() int64 {
	ewma := g.decayedEWMA(time.Now().UnixNano())
	backlog := g.queued.Load() + int64(cap(g.slots))
	ms := ewma * backlog / int64(cap(g.slots)) / int64(time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// RetryHintMS is the monitoring view of the retry-after estimate: the
// same backlog × decayed-EWMA math as the shed hint, but a gate that has
// never observed a single service completes reports 0 — "no data" — not
// the 1ms floor shed responses carry to keep clients from busy-looping.
func (g *Gate) RetryHintMS() int64 {
	if g.samples.Load() == 0 {
		return 0
	}
	return g.retryAfterMS()
}

// Queued reports the current number of admitted waiters (monitoring).
func (g *Gate) Queued() int64 { return g.queued.Load() }

// Inflight reports the number of currently held scoring slots.
func (g *Gate) Inflight() int { return len(g.slots) }

// Caps reports the gate's slot and queue capacities.
func (g *Gate) Caps() (inflight, maxQueue int) {
	return cap(g.slots), int(g.maxQueue)
}

// Samples reports how many service times the EWMA has folded in.
func (g *Gate) Samples() uint64 { return g.samples.Load() }
