package serve

import (
	"errors"
	"testing"
	"time"

	"bismarck/internal/wire"
)

// TestTicketCancelReleasesQueueAccounting is the slot-leak regression at
// the gate level: a queued ticket whose waiter gives up (client
// disconnect) must return its queue booking immediately, and the gate
// must keep admitting afterwards.
func TestTicketCancelReleasesQueueAccounting(t *testing.T) {
	g := NewGate(1, 2)
	holder, err := g.Admit()
	if err != nil {
		t.Fatal(err)
	}
	holder.WaitOrCancel(nil)

	// Two waiters fill the queue.
	w1, err := g.Admit()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := g.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if g.Queued() != 2 {
		t.Fatalf("queued=%d, want 2", g.Queued())
	}

	// Cancel one mid-wait: the booking must come back synchronously.
	cancel := make(chan struct{})
	close(cancel)
	if w1.WaitOrCancel(cancel) {
		t.Fatal("WaitOrCancel on a closed cancel channel with no free slot should report false")
	}
	if g.Queued() != 1 {
		t.Fatalf("canceled waiter left queue accounting at %d, want 1", g.Queued())
	}
	// abandon after a failed wait is a no-op, not a double release.
	w1.abandon()
	if g.Queued() != 1 {
		t.Fatalf("abandon after canceled wait changed queue to %d", g.Queued())
	}

	// abandon the other waiter outright (admitted, never waited).
	w2.abandon()
	if g.Queued() != 0 {
		t.Fatalf("abandoned waiter left queue accounting at %d, want 0", g.Queued())
	}

	// abandon a held slot: freed without feeding the EWMA.
	holder.abandon()
	if g.Samples() != 0 {
		t.Fatalf("abandon fed the EWMA: samples=%d", g.Samples())
	}
	tk, err := g.Admit()
	if err != nil {
		t.Fatalf("gate did not recover after cancels: %v", err)
	}
	tk.WaitOrCancel(nil)
	tk.Release()
	if g.Samples() != 1 {
		t.Fatalf("Release did not feed the EWMA: samples=%d", g.Samples())
	}
}

// TestGateDoReleasesOnPanic: Do releases its slot in a defer, so a
// panicking fn cannot strand it — the panic propagates and the gate
// admits again at once.
func TestGateDoReleasesOnPanic(t *testing.T) {
	g := NewGate(1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic did not propagate through Do")
			}
		}()
		g.Do(nil, func() { panic("scoring blew up") })
	}()
	if in := g.Inflight(); in != 0 {
		t.Fatalf("panicking fn left %d slot(s) held", in)
	}
	ran := false
	if err := g.Do(nil, func() { ran = true }); err != nil || !ran {
		t.Fatalf("gate after a panic: ran=%v err=%v", ran, err)
	}
}

// TestGateDoCanceled: a Do queued behind a held slot returns ErrCanceled
// when its cancel closes, never runs fn, and gives its queue booking back.
func TestGateDoCanceled(t *testing.T) {
	g := NewGate(1, 1)
	hold, err := g.Admit()
	if err != nil {
		t.Fatal(err)
	}
	hold.WaitOrCancel(nil)

	cancel := make(chan struct{})
	done := make(chan error, 1)
	ran := false
	go func() { done <- g.Do(cancel, func() { ran = true }) }()
	deadline := time.Now().Add(5 * time.Second)
	for g.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Do never queued behind the held slot")
		}
		time.Sleep(time.Millisecond)
	}
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled Do returned %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do ignored its cancel channel")
	}
	if ran {
		t.Fatal("canceled Do ran fn")
	}
	if q := g.Queued(); q != 0 {
		t.Fatalf("canceled Do left queue accounting at %d, want 0", q)
	}
	hold.Release()
	if in := g.Inflight(); in != 0 {
		t.Fatalf("inflight=%d after the holder released, want 0", in)
	}
}

// TestGateEWMAHonesty pins the observe/hint bugfix: no samples means a
// zero hint (not a stale-EWMA 1ms), the EWMA can actually walk back to
// zero under fast observations, and an idle gate's hint decays instead of
// quoting service times from long ago.
func TestGateEWMAHonesty(t *testing.T) {
	g := NewGate(1, 1)
	if g.RetryHintMS() != 0 {
		t.Fatalf("gate that never served reports hint %dms, want 0", g.RetryHintMS())
	}

	// First sample anchors the EWMA directly.
	g.observe(int64(8 * time.Millisecond))
	if got := g.ewmaNS.Load(); got != int64(8*time.Millisecond) {
		t.Fatalf("first sample set EWMA to %d, want %d", got, int64(8*time.Millisecond))
	}
	if g.RetryHintMS() < 1 {
		t.Fatalf("served gate reports hint %dms, want >= 1", g.RetryHintMS())
	}

	// A run of zero-cost observations must converge the EWMA all the way
	// to zero — the old old==0-means-uninitialized encoding got stuck.
	for i := 0; i < 100_000 && g.ewmaNS.Load() != 0; i++ {
		g.observe(0)
	}
	if got := g.ewmaNS.Load(); got != 0 {
		t.Fatalf("EWMA stuck at %dns after fast observations, want 0", got)
	}
	// And a zero EWMA with samples still answers (the 1ms shed floor).
	if g.RetryHintMS() != 1 {
		t.Fatalf("hint after convergence %dms, want the 1ms floor", g.RetryHintMS())
	}

	// Idle decay: a big EWMA halves per idle second.
	g.ewmaNS.Store(int64(64 * time.Millisecond))
	now := g.lastNS.Load()
	if got := g.decayedEWMA(now); got != int64(64*time.Millisecond) {
		t.Fatalf("fresh EWMA decayed immediately: %d", got)
	}
	if got := g.decayedEWMA(now + int64(3*time.Second)); got != int64(8*time.Millisecond) {
		t.Fatalf("3s idle decay gave %dns, want %dns", got, int64(8*time.Millisecond))
	}
	if got := g.decayedEWMA(now + int64(120*time.Second)); got != 0 {
		t.Fatalf("2min idle decay gave %dns, want 0", got)
	}
}

// TestCacheChurnConverges is the fill-churn regression: a retrain landing
// between a fill's decode and its publish check used to leave the entry
// unpublished, so every subsequent request re-filled through the cache
// mutex. With the retry, the second decode lands after the swap and
// publishes — requests after the churn window are cache hits.
func TestCacheChurnConverges(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")
	c := r.plane.Cache()

	// Force the race deterministically: the first decode is immediately
	// invalidated by a retrain; the retry's decode is left alone.
	churned := false
	c.afterFill = func(string) {
		if !churned {
			churned = true
			r.train(t, "neg")
		}
	}
	points := [][]float64{{1, 1}}
	scores := make([]float64, 1)
	if _, err := r.plane.Predict("m", points, scores); err != nil {
		t.Fatal(err)
	}
	if scores[0] > -5 {
		t.Fatalf("churned fill served the pre-retrain generation: %v", scores)
	}
	_, fills := c.Stats()
	if fills != 2 {
		t.Fatalf("churned fill decoded %d times, want exactly 2 (original + retry)", fills)
	}

	// Converged: the retry published, so the storm after the churn window
	// is all hits — the pre-fix behavior re-filled on every call here.
	for i := 0; i < 50; i++ {
		if _, err := r.plane.Predict("m", points, scores); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := c.Stats(); after != fills {
		t.Fatalf("fills grew %d -> %d after churn settled; cache never converged", fills, after)
	}
}

// TestCacheChurnBounded: when the model is retrained faster than it can be
// decoded (every decode invalidated), one Get performs at most
// fillAttempts decodes and still serves a consistent snapshot.
func TestCacheChurnBounded(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")
	c := r.plane.Cache()

	srcs := []string{"neg", "pos"}
	n := 0
	c.afterFill = func(string) {
		r.train(t, srcs[n%2])
		n++
	}
	points := [][]float64{{1, 1}}
	scores := make([]float64, 1)
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := r.plane.Predict("m", points, scores); err != nil {
			t.Fatal(err)
		}
		if scores[0] > -5 == (scores[0] < 5) {
			t.Fatalf("churned serve returned non-generation score %v", scores)
		}
	}
	if _, fills := c.Stats(); fills != calls*fillAttempts {
		t.Fatalf("perpetual churn: %d fills for %d calls, want exactly %d (bounded at %d per call)",
			fills, calls, calls*fillAttempts, fillAttempts)
	}
}

// TestPerModelAdmission: one model saturating its own gate is shed while
// the global gate still has room for other models.
func TestPerModelAdmission(t *testing.T) {
	r := newRig(t, Options{Inflight: 4, MaxQueue: 8, ModelInflight: 1, ModelQueue: 1})
	r.train(t, "pos")

	// Hold hot's only model slot.
	holder, err := r.plane.admit("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !holder.wait(nil) {
		t.Fatal("uncontended wait reported canceled")
	}
	// One waiter fits hot's queue; the next is shed at the model level.
	waiter, err := r.plane.admit("hot")
	if err != nil {
		t.Fatalf("hot's queue slot should admit: %v", err)
	}
	_, err = r.plane.admit("hot")
	var busy *wire.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want *wire.BusyError for saturated model, got %T: %v", err, err)
	}

	// The global gate is far from full: a different model still admits and
	// scores end to end.
	scores := make([]float64, 1)
	if _, err := r.plane.Predict("m", [][]float64{{1, 1}}, scores); err != nil {
		t.Fatalf("other model starved by hot model: %v", err)
	}

	// The shed landed on hot's counters, not m's.
	waiter.model.abandon()
	waiter.global.abandon()
	holder.model.abandon()
	holder.global.abandon()
	_, models := r.plane.Stats()
	byName := map[string]ModelStats{}
	for _, ms := range models {
		byName[ms.Model] = ms
	}
	if byName["hot"].Sheds != 1 {
		t.Fatalf("hot sheds=%d, want 1 (stats: %+v)", byName["hot"].Sheds, models)
	}
	if byName["m"].Sheds != 0 || byName["m"].Hits+byName["m"].Fills == 0 {
		t.Fatalf("m counters off: %+v", byName["m"])
	}
}

// TestAdmissionCancelDuringModelWait: cancellation between the two
// admission levels gives back both bookings.
func TestAdmissionCancelDuringModelWait(t *testing.T) {
	r := newRig(t, Options{Inflight: 4, MaxQueue: 8, ModelInflight: 1, ModelQueue: 2})

	holder, err := r.plane.admit("hot")
	if err != nil {
		t.Fatal(err)
	}
	holder.wait(nil)
	queued, err := r.plane.admit("hot")
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	if queued.wait(cancel) {
		t.Fatal("wait with closed cancel and an occupied model slot should report false")
	}
	gs, _ := r.plane.Stats()
	if gs.Queued != 0 {
		t.Fatalf("global queue accounting leaked: %d", gs.Queued)
	}
	if q := r.plane.model("hot").gate.Queued(); q != 0 {
		t.Fatalf("model queue accounting leaked: %d", q)
	}
	holder.release()
	// Both levels recovered: a full Predict admits and completes (it fails
	// only at scoring, since "hot" was never trained).
	scores := make([]float64, 1)
	if _, err := r.plane.Predict("hot", [][]float64{{1, 1}}, scores); err == nil {
		t.Fatal("predict on an untrained model should fail at scoring")
	} else if errors.As(err, new(*wire.BusyError)) {
		t.Fatalf("gates did not recover after cancel: %v", err)
	}
}

// TestQueuedGlobalAdmissionHoldsNoModelSlot is the two-level deadlock
// regression: an admission whose global ticket is queued must not take
// the model's scoring slot. If it did, it would wait for a global slot
// while holding the model slot, and a global-slot holder queued at the
// same model gate would wait for it — one slot of each gate held, each
// waiting on the other, and with both gates at capacity held that way
// the plane wedges for good (pipelined clients hammering one model hit
// exactly this interleaving).
func TestQueuedGlobalAdmissionHoldsNoModelSlot(t *testing.T) {
	r := newRig(t, Options{Inflight: 1, MaxQueue: 2, ModelInflight: 1, ModelQueue: 2})
	r.train(t, "pos")

	// Occupy the only global slot directly — the state of a request caught
	// between its global and model admissions.
	mid, err := r.plane.gate.Admit()
	if err != nil {
		t.Fatal(err)
	}
	mid.WaitOrCancel(nil)

	// A globally-queued admission for m must book m's queue, not m's slot.
	ad, err := r.plane.admit("m")
	if err != nil {
		t.Fatal(err)
	}
	mg := r.plane.model("m").gate
	if got := mg.Inflight(); got != 0 {
		t.Fatalf("globally-queued admission holds %d model slot(s): the two-level cycle is live", got)
	}
	if mg.Queued() != 1 {
		t.Fatalf("model queued=%d, want 1", mg.Queued())
	}

	// The mid-admission global holder can therefore still pass the model
	// gate and finish — under the bug m's slot is gone and this wedges.
	mtk, err := mg.Admit()
	if err != nil {
		t.Fatal(err)
	}
	mtk.WaitOrCancel(nil)
	mtk.Release()
	mid.Release()

	// ...which unblocks the queued admission end to end.
	done := make(chan error, 1)
	go func() {
		if !ad.wait(nil) {
			done <- errors.New("wait(nil) reported canceled")
			return
		}
		defer ad.release()
		scores := make([]float64, 1)
		_, err := r.plane.score(ad.mp, "m", [][]float64{{1, 1}}, scores)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued admission never completed: two-level deadlock")
	}
}

// TestWarmStart: a fresh plane over a catalog with persisted models warms
// them into the cache, so the first request is a pure hit.
func TestWarmStart(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")

	fresh := New(r.cat, nil, Options{})
	warmed := fresh.Warm()
	if len(warmed) != 1 || warmed[0] != "m" {
		t.Fatalf("warmed %v, want [m]", warmed)
	}
	if _, _, ok := fresh.Cache().Lookup("m"); !ok {
		t.Fatal("warm-start did not populate the cache")
	}
	scores := make([]float64, 1)
	if _, err := fresh.Predict("m", [][]float64{{1, 1}}, scores); err != nil {
		t.Fatal(err)
	}
	_, fills := fresh.Cache().Stats()
	if fills != 1 {
		t.Fatalf("first predict after warm paid a decode: fills=%d, want 1", fills)
	}

	// Refill after a retrain pre-decodes the new generation: the next
	// predict is a hit on the fresh snapshot.
	r.train(t, "neg")
	if err := fresh.Refill("m"); err != nil {
		t.Fatal(err)
	}
	hitsBefore, fillsBefore := fresh.Cache().Stats()
	if _, err := fresh.Predict("m", [][]float64{{1, 1}}, scores); err != nil {
		t.Fatal(err)
	}
	if scores[0] > -5 {
		t.Fatalf("refill served stale generation: %v", scores)
	}
	hits, fills := fresh.Cache().Stats()
	if fills != fillsBefore || hits != hitsBefore+1 {
		t.Fatalf("predict after refill: hits %d->%d fills %d->%d, want one hit and no fill",
			hitsBefore, hits, fillsBefore, fills)
	}
}

// TestShowServingStats: the per-model counters add up against a known
// workload.
func TestShowServingStats(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")

	scores := make([]float64, 1)
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := r.plane.Predict("m", [][]float64{{1, 1}}, scores); err != nil {
			t.Fatal(err)
		}
	}
	gs, models := r.plane.Stats()
	if gs.Models != 1 || gs.Inflight != 0 || gs.Queued != 0 {
		t.Fatalf("gate stats %+v", gs)
	}
	if len(models) != 1 || models[0].Model != "m" {
		t.Fatalf("model stats %+v", models)
	}
	ms := models[0]
	if ms.Fills != 1 || ms.Hits != n-1 || ms.Sheds != 0 {
		t.Fatalf("m counters hits=%d fills=%d sheds=%d, want %d/1/0", ms.Hits, ms.Fills, ms.Sheds, n-1)
	}
	if ms.RetryAfterMS < 1 {
		t.Fatalf("served model reports hint %dms, want >= 1", ms.RetryAfterMS)
	}
}
