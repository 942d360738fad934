package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"bismarck/internal/engine"
	"bismarck/internal/sqlish"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
	"bismarck/internal/wire"
)

// mapGuard is a minimal sqlish.Guard for tests (the real server installs
// its refcounted nameLocks; the serving plane only needs the interface).
type mapGuard struct {
	mu sync.Mutex
	m  map[string]*sync.RWMutex
}

func newMapGuard() *mapGuard { return &mapGuard{m: make(map[string]*sync.RWMutex)} }

func (g *mapGuard) get(name string) *sync.RWMutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.m[name]
	if !ok {
		l = &sync.RWMutex{}
		g.m[name] = l
	}
	return l
}

func (g *mapGuard) Lock(k sqlish.LockKey) func() { l := g.get(k.String()); l.Lock(); return l.Unlock }
func (g *mapGuard) RLock(k sqlish.LockKey) func() {
	l := g.get(k.String())
	l.RLock()
	return l.RUnlock
}

// servingRig is a catalog with two constant-label training sets (+10 and
// -10 over the same features), a statement session, and a plane sharing
// the session's guard — enough to train, retrain, and serve one model.
type servingRig struct {
	cat   *engine.Catalog
	sess  *sqlish.Session
	plane *Plane
}

func newRig(t testing.TB, opt Options) *servingRig {
	t.Helper()
	cat := engine.NewCatalog()
	for name, label := range map[string]float64{"pos": 10, "neg": -10} {
		tbl, err := cat.Create(name, tasks.DenseExampleSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			tbl.MustInsert(engine.Tuple{
				engine.I64(int64(i)),
				engine.DenseV(vector.Dense{1, 1}),
				engine.F64(label),
			})
		}
	}
	guard := newMapGuard()
	return &servingRig{
		cat:   cat,
		sess:  &sqlish.Session{Cat: cat, Out: io.Discard, Guard: guard},
		plane: New(cat, guard, opt),
	}
}

// train fits lsq on the +10 or -10 set into model m: the model's score
// for (1, 1) lands near ±10, so the served sign identifies the
// generation — the signal every consistency assertion below reads.
func (r *servingRig) train(t testing.TB, src string) {
	t.Helper()
	stmt := fmt.Sprintf(`SELECT vec, label FROM %s TO TRAIN lsq
		WITH alpha=0.1, epochs=6, dim=2, seed=1 INTO m;`, src)
	if err := r.sess.Exec(stmt); err != nil {
		t.Fatalf("train from %s: %v", src, err)
	}
}

func TestPlanePredictCacheLifecycle(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")

	points := [][]float64{{1, 1}, {2, 2}}
	scores := make([]float64, 2)
	gen1, err := r.plane.Predict("m", points, scores)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 == 0 || scores[0] < 5 || scores[1] < 10 {
		t.Fatalf("gen=%d scores=%v, want positive regression outputs", gen1, scores)
	}

	// Second call is a pure cache hit at the same generation.
	gen2, err := r.plane.Predict("m", points, scores)
	if err != nil {
		t.Fatal(err)
	}
	hits, fills := r.plane.Cache().Stats()
	if gen2 != gen1 || fills != 1 || hits == 0 {
		t.Fatalf("gen %d->%d, hits=%d fills=%d; want one fill then hits", gen1, gen2, hits, fills)
	}

	// Retrain with flipped labels: the generation bump invalidates the
	// entry without any notification, and the refilled snapshot flips
	// the served sign.
	r.train(t, "neg")
	gen3, err := r.plane.Predict("m", points, scores)
	if err != nil {
		t.Fatal(err)
	}
	if gen3 <= gen1 {
		t.Fatalf("retrain did not advance served generation: %d -> %d", gen1, gen3)
	}
	if scores[0] > -5 {
		t.Fatalf("retrained model still serves old sign: %v", scores)
	}
}

// TestDroppedModelEvicted is the staleness regression: after a model is
// dropped, the plane must fail with the typed unknown-model error and the
// cache must not retain (let alone serve) the dead entry — even though no
// eviction message was ever sent.
func TestDroppedModelEvicted(t *testing.T) {
	r := newRig(t, Options{})
	r.train(t, "pos")

	points := [][]float64{{1, 1}}
	scores := make([]float64, 1)
	if _, err := r.plane.Predict("m", points, scores); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.plane.Cache().Lookup("m"); !ok {
		t.Fatal("expected a cached entry after first predict")
	}

	for _, n := range []string{"m", "m__meta"} {
		if err := r.cat.Drop(n); err != nil {
			t.Fatal(err)
		}
	}
	// The drop bumped the generation: the entry is invalid immediately.
	if _, _, ok := r.plane.Cache().Lookup("m"); ok {
		t.Fatal("dropped model still served from cache")
	}
	_, err := r.plane.Predict("m", points, scores)
	var unk *sqlish.UnknownModelError
	if !errors.As(err, &unk) || unk.Model != "m" {
		t.Fatalf("want *UnknownModelError for m, got %T: %v", err, err)
	}
	// The failed fill evicted the dead entry from the epoch map itself.
	if _, ok := (*r.plane.Cache().cur.Load())["m"]; ok {
		t.Fatal("dead entry still present in the published epoch")
	}

	// A retrain under the same name serves again.
	r.train(t, "neg")
	if _, err := r.plane.Predict("m", points, scores); err != nil {
		t.Fatal(err)
	}
	if scores[0] > -5 {
		t.Fatalf("revived model serves wrong coefficients: %v", scores)
	}
}

func TestGateShedding(t *testing.T) {
	g := NewGate(1, 1)

	// Occupy the single slot.
	holder, err := g.Admit()
	if err != nil {
		t.Fatal(err)
	}
	holder.WaitOrCancel(nil)

	// One waiter fits in the queue.
	waiter, err := g.Admit()
	if err != nil {
		t.Fatalf("queue slot should admit: %v", err)
	}
	if g.Queued() != 1 {
		t.Fatalf("queued=%d, want 1", g.Queued())
	}

	// The next request is shed with a typed, hinted rejection.
	_, err = g.Admit()
	var busy *wire.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want *wire.BusyError, got %T: %v", err, err)
	}
	if busy.RetryAfterMS < 1 {
		t.Fatalf("retry hint %dms, want >= 1", busy.RetryAfterMS)
	}
	if g.Queued() != 1 {
		t.Fatalf("shed request leaked into queue: queued=%d", g.Queued())
	}

	// Drain: the waiter gets the slot when the holder releases.
	done := make(chan struct{})
	go func() {
		waiter.WaitOrCancel(nil)
		waiter.Release()
		close(done)
	}()
	holder.Release()
	<-done
	if g.Queued() != 0 {
		t.Fatalf("queue not drained: %d", g.Queued())
	}
	if tk, err := g.Admit(); err != nil {
		t.Fatalf("gate did not recover: %v", err)
	} else {
		tk.WaitOrCancel(nil)
		tk.Release()
	}
}

// TestPredictZeroAlloc pins the acceptance contract: the steady-state
// serving path — gate admit, cache hit, warm scratch, score — performs
// zero heap allocations per request.
func TestPredictZeroAlloc(t *testing.T) {
	r := newRig(t, Options{Inflight: 2, MaxQueue: 4})
	r.train(t, "pos")

	points := [][]float64{{1, 1}, {2, 2}, {0.5, 0.25}}
	scores := make([]float64, len(points))
	if _, err := r.plane.Predict("m", points, scores); err != nil { // warm fill + scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.plane.Predict("m", points, scores); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Predict allocates %v/op, want 0", allocs)
	}
}

// TestPredictDuringRetrainRace hammers the plane from many goroutines
// while the model is retrained back and forth between the +10 and -10
// sets. Every response must be internally consistent with exactly one
// generation: within a batch of proportional probes, all scores carry the
// same sign and keep their ratio — a torn batch (old snapshot for one
// tuple, new for another) would break both.
func TestPredictDuringRetrainRace(t *testing.T) {
	r := newRig(t, Options{Inflight: 4, MaxQueue: 64})
	r.train(t, "pos")

	const clients = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			points := [][]float64{{1, 1}, {3, 3}}
			scores := make([]float64, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen, err := r.plane.Predict("m", points, scores)
				if err != nil {
					var busy *wire.BusyError
					if errors.As(err, &busy) {
						continue // shed load is a valid answer under hammering
					}
					errc <- err
					return
				}
				if gen == 0 {
					errc <- fmt.Errorf("served generation 0")
					return
				}
				if (scores[0] > 0) != (scores[1] > 0) {
					errc <- fmt.Errorf("torn batch: signs differ %v", scores)
					return
				}
				ratio := scores[1] / scores[0]
				if ratio < 2.999 || ratio > 3.001 {
					errc <- fmt.Errorf("torn batch: ratio %v for %v", ratio, scores)
					return
				}
			}
		}()
	}
	srcs := []string{"neg", "pos", "neg", "pos"}
	for _, src := range srcs {
		r.train(t, src)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
