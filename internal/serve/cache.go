package serve

import (
	"io"
	"sync"
	"sync/atomic"

	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// entry is one cached model pinned to the catalog generation it was
// decoded under. handle is the name's live generation counter
// (engine.Catalog.GenHandle) — the pointer is stored here, not re-fetched,
// so validity is one atomic load away with no map traffic and no
// string-key interface boxing on the hot path.
type entry struct {
	snap   *sqlish.ModelSnapshot
	gen    uint64
	handle *atomic.Uint64
}

// valid reports whether the entry still matches the catalog: any TRAIN
// (swap-retarget), DROP, or re-CREATE of the name bumps the counter and
// every cached reader notices on its next lookup — invalidation without
// broadcast.
func (e *entry) valid() bool { return e.gen == e.handle.Load() }

// epoch is one immutable published cache state. Fills and evictions build
// a new map and swap the pointer; readers only ever load it.
type epoch map[string]*entry

// with returns a copy of ep with the model's entry set.
func (ep *epoch) with(model string, e *entry) *epoch {
	next := make(epoch, len(*ep)+1)
	for k, v := range *ep {
		next[k] = v
	}
	next[model] = e
	return &next
}

// without returns a copy of ep lacking the model, or ep itself when the
// model is absent.
func (ep *epoch) without(model string) *epoch {
	if _, ok := (*ep)[model]; !ok {
		return ep
	}
	next := make(epoch, len(*ep))
	for k, v := range *ep {
		if k != model {
			next[k] = v
		}
	}
	return &next
}

// fillAttempts bounds how many times one Get re-decodes a model whose
// generation moved between the decode and the publish check. One retry is
// the sweet spot: under a hot retrain loop the second decode almost always
// lands after the swap and publishes, so churn converges to one fill per
// generation instead of serializing every request through the fill mutex;
// a model being retrained faster than it can be decoded is served the
// consistent-but-unpublished snapshot rather than looping.
const fillAttempts = 2

// Cache holds hot decoded models for the serving plane. Readers are
// lock-free (one atomic pointer load, one map lookup, one atomic counter
// compare); only the fill path — a cache miss decoding a model from its
// tables — takes the cache mutex, and it holds it as a single-flight
// guard so a thundering herd on a cold name decodes once.
type Cache struct {
	cat  *engine.Catalog
	fill *sqlish.Session // fill-path decoder; guarded by mu
	mu   sync.Mutex      // serializes fills and epoch publication
	cur  atomic.Pointer[epoch]

	hits  atomic.Uint64
	fills atomic.Uint64

	// afterFill, when set, runs after each LoadSnapshot inside the fill
	// lock, before the generation re-check. Tests use it to force the
	// mutated-between-decode-and-publish window deterministically.
	afterFill func(model string)
}

// NewCache builds an empty cache over the catalog. guard is the shared
// cross-session name-lock registry (may be nil for an exclusively owned
// catalog); the fill path locks model names through it like any scoring
// statement.
func NewCache(cat *engine.Catalog, guard sqlish.Guard) *Cache {
	c := &Cache{
		cat:  cat,
		fill: &sqlish.Session{Cat: cat, Out: io.Discard, Guard: guard},
	}
	c.cur.Store(&epoch{})
	return c
}

// Lookup returns the cached snapshot for the model if one is present and
// still matches the catalog generation. This is the hot path: no locks,
// no allocations.
func (c *Cache) Lookup(model string) (*sqlish.ModelSnapshot, uint64, bool) {
	e, ok := (*c.cur.Load())[model]
	if !ok || !e.valid() {
		return nil, 0, false
	}
	c.hits.Add(1)
	return e.snap, e.gen, true
}

// Get returns the model's snapshot, filling the cache on a miss. A fill
// decodes the model under its name's read lock (LoadSnapshot) and pins
// the result to the generation observed inside that lock window. Filling
// a name that does not exist evicts any stale entry and returns
// *sqlish.UnknownModelError — a dropped model is never served from cache.
func (c *Cache) Get(model string) (*sqlish.ModelSnapshot, uint64, error) {
	snap, gen, _, err := c.get(model)
	return snap, gen, err
}

// get is Get plus the number of decode passes this call performed (0 on a
// hit) — the serving plane's per-model fill accounting.
func (c *Cache) get(model string) (snap *sqlish.ModelSnapshot, gen uint64, filled int, err error) {
	if snap, gen, ok := c.Lookup(model); ok {
		return snap, gen, 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Double-check under the fill lock: a racing fill may have published.
	if snap, gen, ok := c.Lookup(model); ok {
		return snap, gen, 0, nil
	}
	for attempt := 1; ; attempt++ {
		snap, gen, err := c.fill.LoadSnapshot(model)
		if err != nil {
			c.cur.Store(c.cur.Load().without(model))
			return nil, 0, attempt, err
		}
		c.fills.Add(1)
		if c.afterFill != nil {
			c.afterFill(model)
		}
		handle := c.cat.GenHandle(model)
		if handle != nil && handle.Load() == gen {
			c.cur.Store(c.cur.Load().with(model, &entry{snap: snap, gen: gen, handle: handle}))
			return snap, gen, attempt, nil
		}
		// The name mutated (or vanished) between decode and here. The
		// snapshot is still the consistent read we made under the lock, but
		// publishing it would plant a dead entry — so re-decode: the retry
		// usually lands after the swap and publishes, which is what keeps a
		// hot retrain loop from turning every request into a serialized
		// fill through this mutex. Past the retry budget, serve the
		// consistent snapshot once, unpublished.
		if attempt >= fillAttempts {
			return snap, gen, attempt, nil
		}
	}
}

// Refill forces the model's next-generation snapshot into the cache: the
// post-swap warming path, called after a TRAIN commit so the first request
// against the new generation never pays the decode. The stale entry is
// already invalid (the swap bumped the generation), so this is just a Get
// with the result discarded; errors are returned for logging but leave the
// cache consistent (a failed refill evicts).
func (c *Cache) Refill(model string) error {
	_, _, err := c.Get(model)
	return err
}

// Warm fills the cache for every persisted model in the catalog — the
// daemon-start path. A model is any table with a metadata side table. A
// model that fails to decode (unregistered task, condemned pair) is
// skipped, not fatal: warming is an optimization, and the per-request path
// reports the real error to the client that asks. Returns the names warmed.
func (c *Cache) Warm() []string {
	names := c.cat.Names()
	has := make(map[string]bool, len(names))
	for _, n := range names {
		has[n] = true
	}
	var warmed []string
	for _, n := range names {
		if !has[n+spec.MetaSuffix] {
			continue
		}
		if _, _, err := c.Get(n); err == nil {
			warmed = append(warmed, n)
		}
	}
	return warmed
}

// Stats reports cumulative hit and fill counts (monitoring/bench only).
func (c *Cache) Stats() (hits, fills uint64) {
	return c.hits.Load(), c.fills.Load()
}
