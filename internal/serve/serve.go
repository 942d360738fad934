// Package serve is the high-throughput serving plane: it answers inline
// point-PREDICT statements from hot decoded models instead of re-reading
// coefficient tables per statement.
//
// The plane is three mechanisms stacked so the steady-state path touches
// no locks and allocates nothing:
//
//   - Cache pins decoded model snapshots (sqlish.ModelSnapshot) to the
//     catalog generation observed while loading them. Lookups read an
//     atomic epoch pointer — no per-name read/write locks — and validity
//     is a single atomic compare against the name's generation counter
//     (engine.Catalog.GenHandle), so TRAIN and DROP invalidate by
//     bumping a counter, never by broadcasting to readers.
//   - Gate is admission control: a fixed number of scoring slots plus a
//     bounded wait queue. Beyond the queue the plane sheds load with a
//     typed wire.BusyError carrying a retry-after hint, so an overloaded
//     server degrades into fast rejections instead of goroutine pileups.
//     Admission is two-level: the global gate bounds the whole plane, and
//     a per-model gate bounds each model's share of it, so one hot model
//     cannot occupy the entire queue and starve the rest of the catalog.
//   - Plane ties them together and scores a whole statement batch
//     against ONE snapshot, which is what makes a batched response
//     internally consistent with exactly one model generation even while
//     a concurrent TRAIN swaps the name underneath.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// Options sizes the serving plane.
type Options struct {
	// Inflight is the number of concurrent scoring slots (default:
	// number of CPUs via the Gate's own default).
	Inflight int
	// MaxQueue is how many admitted requests may wait for a slot before
	// the plane starts shedding (default: 4× Inflight).
	MaxQueue int
	// ModelInflight bounds one model's concurrent scoring slots (default:
	// the global Inflight — a lone hot model may still use the whole
	// plane).
	ModelInflight int
	// ModelQueue bounds one model's waiters (default: half the global
	// queue, min 1) so a single hot model cannot book every queue
	// position and starve the rest of the catalog.
	ModelQueue int
}

// maxModelPlanes bounds the per-model gate registry: past it, requests for
// never-seen names share one overflow bucket instead of growing the map
// without limit (a client probing random model names must not OOM the
// daemon's admission state).
const maxModelPlanes = 1024

// modelPlane is one model's slice of the serving plane: its admission
// gate and its serving counters. Entries are created lazily on first
// request and never removed — a model's counters survive retrains and
// drops, which is what SHOW SERVING wants.
type modelPlane struct {
	name  string
	gate  *Gate
	hits  atomic.Uint64
	fills atomic.Uint64
	sheds atomic.Uint64
}

// Plane is the serving plane for one catalog. It is safe for concurrent
// use by any number of connections.
type Plane struct {
	cache *Cache
	gate  *Gate
	pool  sync.Pool // *sqlish.PointScratch, one per in-flight scorer

	modelInflight int
	modelQueue    int
	models        sync.Map // string → *modelPlane
	modelCount    atomic.Int64
	overflow      *modelPlane // shared bucket past maxModelPlanes
}

// New builds a serving plane over the catalog. guard is the cross-session
// name-lock registry shared with the statement sessions (the cache's fill
// path takes the model's read lock through it, exactly like a PREDICT
// statement would); nil means the caller owns the catalog exclusively.
func New(cat *engine.Catalog, guard sqlish.Guard, opt Options) *Plane {
	p := &Plane{
		cache: NewCache(cat, guard),
		gate:  NewGate(opt.Inflight, opt.MaxQueue),
	}
	inflight, queue := p.gate.Caps()
	p.modelInflight = opt.ModelInflight
	if p.modelInflight <= 0 {
		p.modelInflight = inflight
	}
	p.modelQueue = opt.ModelQueue
	if p.modelQueue <= 0 {
		p.modelQueue = queue / 2
		if p.modelQueue < 1 {
			p.modelQueue = 1
		}
	}
	p.overflow = &modelPlane{name: "(overflow)",
		gate: NewGate(p.modelInflight, p.modelQueue)}
	p.pool.New = func() any { return new(sqlish.PointScratch) }
	return p
}

// Gate exposes the plane's global admission gate (the server reports
// queue pressure from it).
func (p *Plane) Gate() *Gate { return p.gate }

// Cache exposes the plane's snapshot cache.
func (p *Plane) Cache() *Cache { return p.cache }

// model resolves (lazily creating) the per-model plane state. The hot
// path for a known name is one sync.Map load; creation allocates once per
// name. Past maxModelPlanes new names share the overflow bucket.
func (p *Plane) model(name string) *modelPlane {
	if v, ok := p.models.Load(name); ok {
		return v.(*modelPlane)
	}
	if p.modelCount.Load() >= maxModelPlanes {
		return p.overflow
	}
	mp := &modelPlane{name: name, gate: NewGate(p.modelInflight, p.modelQueue)}
	if v, loaded := p.models.LoadOrStore(name, mp); loaded {
		return v.(*modelPlane)
	}
	p.modelCount.Add(1)
	return mp
}

// admission is one request's claimed passage through both admission
// levels: the global gate (the plane-wide bound) and the model's gate
// (its share of the plane). It is a value — no allocation per request —
// and must not be copied after wait. Only Do and Go hold one, and both
// release it structurally.
type admission struct {
	mp     *modelPlane
	global Ticket
	model  Ticket
}

// admit decides synchronously whether a request against the model may
// proceed. Shedding at either level returns *wire.BusyError — with the retry
// hint of the gate that shed — and counts against the model's shed
// counter; nothing is spawned or queued for a shed request.
//
// The slot-order invariant lives here: a model slot is only ever taken
// by a holder of a global slot. When the global admission is queued, the
// model admission books a queue position only (admitQueued) — taking the
// model's slot while waiting for a global one would let two requests
// hold one slot each of the two gates and wait for the other's, and
// with both gates' remaining slots held the same way the plane deadlocks
// (TestQueuedGlobalAdmissionHoldsNoModelSlot is the regression).
func (p *Plane) admit(model string) (admission, error) {
	mp := p.model(model)
	global, err := p.gate.Admit()
	if err != nil {
		mp.sheds.Add(1)
		return admission{}, err
	}
	var mtk Ticket
	if global.booked {
		mtk, err = mp.gate.Admit()
	} else {
		mtk, err = mp.gate.admitQueued()
	}
	if err != nil {
		global.abandon()
		mp.sheds.Add(1)
		return admission{}, err
	}
	return admission{mp: mp, global: global, model: mtk}, nil
}

// wait blocks until the admission holds both scoring slots, or cancel
// closes first — then every booking is returned to its gate and wait
// reports false: the caller owns nothing and must not release. Slot
// order is fixed (global, then model) so a model-slot holder is always
// actively scoring, never blocked on the global gate — which is what
// makes the two-level protocol deadlock-free.
func (a *admission) wait(cancel <-chan struct{}) bool {
	if !a.global.WaitOrCancel(cancel) {
		a.model.abandon()
		return false
	}
	if !a.model.WaitOrCancel(cancel) {
		a.global.abandon()
		return false
	}
	return true
}

// release frees both slots, feeding the observed service time into both
// gates' retry-hint EWMAs.
func (a *admission) release() {
	a.model.Release()
	a.global.Release()
}

// Do scores every tuple of points against the named model and writes the
// raw scores into scores[:len(points)], returning the model generation
// that produced them. It admits through both gates, waits for both slots
// (or returns ErrCanceled when cancel closes first; nil never fires),
// scores, and releases in a defer.
//
// An overloaded plane returns *wire.BusyError (with a retry-after hint)
// without touching the cache. A model that does not exist returns
// *sqlish.UnknownModelError. On the steady-state path — cache hit, warm
// scratch — Do takes no per-name locks and performs zero heap
// allocations.
func (p *Plane) Do(model string, cancel <-chan struct{}, points [][]float64, scores []float64) (uint64, error) {
	ad, err := p.admit(model)
	if err != nil {
		return 0, err
	}
	return p.run(&ad, model, cancel, points, scores)
}

// Predict is Do with no cancel channel.
func (p *Plane) Predict(model string, points [][]float64, scores []float64) (uint64, error) {
	return p.Do(model, nil, points, scores)
}

// Go is Do handed off to one worker goroutine, for callers that must not
// block their reader (pipelined text frames). Admission is decided here,
// in the caller: a shed returns *wire.BusyError and spawns nothing. Otherwise
// Go adds one worker to wg and returns nil. The worker waits for its
// slots, scores into a fresh buffer, releases, and only then calls reply.
// When cancel closes before scoring starts, the worker returns every
// booking and exits without calling reply.
func (p *Plane) Go(model string, points [][]float64, cancel <-chan struct{}, wg *sync.WaitGroup, reply func(scores []float64, err error)) error {
	ad, err := p.admit(model)
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		scores := make([]float64, len(points))
		if _, err := p.run(&ad, model, cancel, points, scores); err != ErrCanceled {
			reply(scores, err)
		}
	}()
	return nil
}

// run holds ad's slots across one scoring: wait or cancel, skip the work
// if cancel closed meanwhile, score the whole batch against one cache
// entry — one generation — and release in a defer. A TRAIN committing
// mid-batch changes nothing already in flight.
func (p *Plane) run(ad *admission, model string, cancel <-chan struct{}, points [][]float64, scores []float64) (uint64, error) {
	if !ad.wait(cancel) {
		return 0, ErrCanceled
	}
	defer ad.release()
	select {
	case <-cancel:
		return 0, ErrCanceled
	default:
	}
	return p.score(ad.mp, model, points, scores)
}

// score is the shared scoring tail: validate, snapshot, pooled scratch.
func (p *Plane) score(mp *modelPlane, model string, points [][]float64, scores []float64) (uint64, error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("serve: empty point batch")
	}
	if len(scores) < len(points) {
		return 0, fmt.Errorf("serve: scores buffer holds %d, batch has %d", len(scores), len(points))
	}
	if err := spec.ValidatePoints(points); err != nil {
		return 0, err
	}
	snap, gen, filled, err := p.cache.get(model)
	if filled > 0 {
		mp.fills.Add(uint64(filled))
	} else if err == nil {
		mp.hits.Add(1)
	}
	if err != nil {
		return 0, err
	}
	sc := p.pool.Get().(*sqlish.PointScratch)
	defer p.pool.Put(sc)
	for i, vals := range points {
		s, err := sc.Score(snap, vals)
		if err != nil {
			return 0, err
		}
		scores[i] = s
	}
	return gen, nil
}

// Warm pre-fills the snapshot cache for every persisted model in the
// catalog (daemon start) and returns the names warmed. Fills count into
// the per-model counters like any other fill.
func (p *Plane) Warm() []string {
	warmed := p.cache.Warm()
	for _, name := range warmed {
		p.model(name).fills.Add(1)
	}
	return warmed
}

// Refill re-decodes one model into the cache — the post-TRAIN-commit
// warming path, so the first request against the new generation never
// pays the decode. Errors are the caller's to log; the cache stays
// consistent either way.
func (p *Plane) Refill(model string) error {
	mp := p.model(model)
	err := p.cache.Refill(model)
	if err == nil {
		mp.fills.Add(1)
	}
	return err
}

// GateStats is the plane-wide admission picture.
type GateStats struct {
	Inflight    int   // slots currently held
	InflightCap int   // total scoring slots
	Queued      int64 // admitted waiters right now
	QueueCap    int   // waiters before shedding starts
	Models      int   // per-model planes registered
}

// ModelStats is one model's serving counters for SHOW SERVING.
type ModelStats struct {
	Model        string
	Hits         uint64 // cache hits (requests served from a hot snapshot)
	Fills        uint64 // snapshot decodes (cold, post-retrain, warming)
	Sheds        uint64 // requests rejected busy at either admission level
	Inflight     int    // scoring slots this model holds right now
	Queued       int64  // waiters parked on this model's gate right now
	RetryAfterMS int64  // current retry hint (0 = never served anything)
}

// Stats snapshots the plane for SHOW SERVING: the global gate and every
// model's counters, sorted by name.
func (p *Plane) Stats() (GateStats, []ModelStats) {
	inflight, queueCap := p.gate.Caps()
	gs := GateStats{
		Inflight:    p.gate.Inflight(),
		InflightCap: inflight,
		Queued:      p.gate.Queued(),
		QueueCap:    queueCap,
		Models:      int(p.modelCount.Load()),
	}
	var ms []ModelStats
	collect := func(mp *modelPlane) {
		ms = append(ms, ModelStats{
			Model:        mp.name,
			Hits:         mp.hits.Load(),
			Fills:        mp.fills.Load(),
			Sheds:        mp.sheds.Load(),
			Inflight:     mp.gate.Inflight(),
			Queued:       mp.gate.Queued(),
			RetryAfterMS: mp.gate.RetryHintMS(),
		})
	}
	p.models.Range(func(_, v any) bool {
		collect(v.(*modelPlane))
		return true
	})
	if o := p.overflow; o.hits.Load()+o.fills.Load()+o.sheds.Load() > 0 {
		collect(o)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Model < ms[j].Model })
	return gs, ms
}
