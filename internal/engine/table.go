package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Storage-level name conventions. The engine owns them because they are
// what the recovery sweep and the swap protocol key on; the statement
// layer aliases them for its own reservations and lock keys.
const (
	// MetaSuffix marks a model's metadata side table ("<model>__meta").
	// A model and its side table commit and recover as one unit.
	MetaSuffix = "__meta"
	// ShadowSuffix marks an in-flight table generation being built for a
	// Catalog.Swap ("<name>__shadow" heaps). Shadow names are reserved:
	// they never appear in Names() or catalog.json checkpoints, and any
	// shadow heap found on disk at OpenFileCatalog is an uncommitted
	// generation and is swept.
	ShadowSuffix = "__shadow"
)

// IsShadowName reports whether a table name is a reserved shadow name.
func IsShadowName(name string) bool { return strings.HasSuffix(name, ShadowSuffix) }

// Table is a named, typed heap of tuples, with a versioned decoded-row
// cache over it. The version counter is bumped by every physical mutation
// (Insert, Shuffle, ClusterBy, CopyTo-into) so cached materializations can
// tell when they are stale.
type Table struct {
	Name   string
	Schema Schema
	heap   *Heap
	// slabOnly marks a projected view or index shard whose rows live in mat
	// alone: heap stays empty until pages() encodes them into it for the
	// first physical operation — mutations included, so mat cannot go stale.
	slabOnly atomic.Bool

	version atomic.Uint64
	matMu   sync.Mutex
	mat     *Materialized

	// enc is Insert's record buffer, reused row after row; a record too
	// large for one page gets a buffer of its own instead.
	enc []byte
}

// NewMemTable creates an in-memory table.
func NewMemTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema, heap: NewMemHeap()}
}

// pages returns the table's heap, first encoding a slab-only table's rows
// into it. Appends to a memory heap cannot fail, so neither can that.
func (t *Table) pages() *Heap {
	if t.slabOnly.Load() {
		t.matMu.Lock()
		defer t.matMu.Unlock()
		if t.slabOnly.Load() {
			var enc []byte
			if err := t.mat.Scan(func(tp Tuple) error {
				enc = tp.AppendEncode(enc[:0])
				return t.heap.Append(enc)
			}); err != nil {
				panic(fmt.Sprintf("engine: building the page heap of %s: %v", t.Name, err))
			}
			t.slabOnly.Store(false)
		}
	}
	return t.heap
}

// newFileTable creates/opens a file-backed table under dir, reporting how
// many bytes of torn tail the open truncated (repairTail only).
func newFileTable(dir, name string, schema Schema, poolPages int, io *IOHooks, repairTail bool) (*Table, int64, error) {
	h, repaired, err := openFileHeap(filepath.Join(dir, name+".heap"), poolPages, io, repairTail)
	if err != nil {
		return nil, 0, err
	}
	h.table = name
	return &Table{Name: name, Schema: schema, heap: h}, repaired, nil
}

// Insert appends one tuple, validating it against the schema. Like
// Heap.Append, it must not run concurrently with another Insert into t.
func (t *Table) Insert(tp Tuple) error {
	if !tp.Matches(t.Schema) {
		return fmt.Errorf("engine: tuple does not match schema of %s", t.Name)
	}
	var rec []byte
	if tp.encodedSize() <= maxInlineRecord {
		t.enc = tp.AppendEncode(t.enc[:0])
		rec = t.enc
	} else {
		rec = tp.Encode()
	}
	if err := t.pages().Append(rec); err != nil {
		return err
	}
	t.version.Add(1)
	return nil
}

// Version returns the table's mutation counter. Any physical change to the
// stored rows bumps it; equal versions guarantee identical contents.
func (t *Table) Version() uint64 { return t.version.Load() }

// MustInsert inserts and panics on error; convenient for generators.
func (t *Table) MustInsert(tp Tuple) {
	if err := t.Insert(tp); err != nil {
		panic(err)
	}
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if t.slabOnly.Load() {
		return t.mat.NumRows()
	}
	return t.heap.NumRecords()
}

// NumPages returns the flushed page count (0 while the rows live in slabs
// alone).
func (t *Table) NumPages() int { return t.heap.NumPages() }

// Flush seals the in-memory tail page (required before parallel scans).
func (t *Table) Flush() error { return t.heap.Flush() }

// Sync flushes and fsyncs the backing heap — the durability step of the
// shadow-swap protocol (no-op persistence-wise for in-memory tables).
func (t *Table) Sync() error { return t.heap.Sync() }

// Scan visits every tuple in storage order. Each tuple is freshly
// allocated, so callers may retain them; bulk read paths that do not retain
// rows should prefer ScanReuse or the materialized cache.
func (t *Table) Scan(fn func(Tuple) error) error {
	return t.ScanPages(0, t.pages().NumPages(), fn)
}

// ScanPages visits tuples stored in pages [from, to) — the unit of
// shared-nothing segmentation. Records that fail to decode or do not match
// the table schema (a truncated heap record would otherwise surface as an
// index panic deep inside task code) return a *CorruptRecordError.
func (t *Table) ScanPages(from, to int, fn func(Tuple) error) error {
	return t.pages().ScanPages(from, to, func(rec []byte) error {
		tp, err := t.decode(rec, NewTupleScratch(t.Schema))
		if err != nil {
			return err
		}
		return fn(tp)
	})
}

// decode parses one heap record under the table's schema into sc, stamping
// the table's name into a *CorruptRecordError.
func (t *Table) decode(rec []byte, sc *TupleScratch) (Tuple, error) {
	tp, err := DecodeTupleInto(rec, sc)
	if err != nil {
		var ce *CorruptRecordError
		if errors.As(err, &ce) && ce.Table == "" {
			ce.Table = t.Name
		}
	}
	return tp, err
}

// ScanSegment makes Table satisfy the Relation scan contract; segments are
// page ranges.
func (t *Table) ScanSegment(from, to int, fn func(Tuple) error) error {
	return t.ScanPages(from, to, fn)
}

// ScanReuse visits every tuple in storage order through one reusable
// decode scratch: the tuple passed to fn (and every slice-typed cell in it)
// is overwritten by the next row and must not be retained. Steady state
// allocates nothing beyond the scratch's high-water mark.
func (t *Table) ScanReuse(fn func(Tuple) error) error {
	return t.ScanPagesReuse(0, t.pages().NumPages(), fn)
}

// ScanPagesReuse is ScanReuse over the page range [from, to). Each call
// owns its own scratch, so concurrent segment scans are safe.
func (t *Table) ScanPagesReuse(from, to int, fn func(Tuple) error) error {
	sc := NewTupleScratch(t.Schema)
	return t.pages().ScanPages(from, to, func(rec []byte) error {
		tp, err := t.decode(rec, sc)
		if err != nil {
			return err
		}
		return fn(tp)
	})
}

// reuseRelation adapts a table to the Relation contract through the
// reusable-scratch decode path. Tuples are only valid during the callback.
type reuseRelation struct{ t *Table }

func (r reuseRelation) Scan(fn func(Tuple) error) error { return r.t.ScanReuse(fn) }
func (r reuseRelation) ScanSegment(from, to int, fn func(Tuple) error) error {
	return r.t.ScanPagesReuse(from, to, fn)
}
func (r reuseRelation) Segments(n int) ([][2]int, error) { return r.t.Segments(n) }

// Reuse returns a Relation over the table that decodes through reusable
// scratch buffers instead of allocating per row. Safe for consumers that do
// not retain tuples past the callback (every IGD transition function).
func (t *Table) Reuse() Relation { return reuseRelation{t} }

// Scrub re-verifies every flushed page against the backing store and
// quarantines failures — the engine behind CHECK TABLE.
func (t *Table) Scrub() ScrubReport {
	rep := t.heap.Scrub()
	rep.Table = t.Name
	return rep
}

// QuarantinedPages returns the table's corruption map (nil when healthy).
func (t *Table) QuarantinedPages() map[int]string { return t.heap.QuarantinedPages() }

// Degraded reports whether the table carries quarantined pages: strict
// scans over it fail with a *CorruptPageError until it is rewritten.
func (t *Table) Degraded() bool { return len(t.heap.QuarantinedPages()) > 0 }

// Materialize returns the table's decoded-row cache, building (or
// rebuilding) it when the table version has moved since the last build.
// The returned cache is immutable and shared: callers that reorder rows
// take a View. Only this call touches page bytes, on every worker (see
// build); steady-state epochs scan the slabs.
func (t *Table) Materialize() (*Materialized, error) {
	t.matMu.Lock()
	defer t.matMu.Unlock()
	v := t.Version()
	if t.mat != nil && t.mat.version == v {
		return t.mat, nil
	}
	m, _, err := t.build(Projection{Schema: t.Schema, Rows: t.NumRows()})
	if err != nil {
		return nil, err
	}
	m.version = v
	t.mat = m
	return m, nil
}

// CachedRows returns the existing cache when it is still fresh, or nil —
// it never triggers a build. Loss evaluations use it so a physically
// reordered table (whose cache goes stale every epoch) does not pay a
// rebuild per loss pass.
func (t *Table) CachedRows() *Materialized {
	t.matMu.Lock()
	defer t.matMu.Unlock()
	if t.mat != nil && t.mat.version == t.Version() {
		return t.mat
	}
	return nil
}

// ScanStable visits every tuple with cells the caller may retain past the
// callback (the rule the reservoir samplers need): the fresh decoded-row
// cache when present — its slabs never move and are pinned by the table
// anyway — otherwise freshly allocated tuples via Scan. Only the cells are
// stable: the cache reuses one tuple header for every row, so a retainer
// copies the header. It never builds a cache, so retaining a small sample
// cannot pin a whole decoded table.
func (t *Table) ScanStable(fn func(Tuple) error) error {
	if mat := t.CachedRows(); mat != nil {
		return mat.Scan(fn)
	}
	return t.Scan(fn)
}

// Rows returns the fastest safe bulk-read path that never builds or pins a
// cache: the materialized cache when one is already fresh (e.g. a primed
// training view), otherwise the reusable-scratch relation — so a one-shot
// scan of a large uncached table does not double its memory footprint.
// Tuples seen through the reuse fallback are only valid during the
// callback, so callers must not retain them (retaining consumers use
// Materialize or Scan explicitly).
func (t *Table) Rows() Relation {
	if mat := t.CachedRows(); mat != nil {
		return mat
	}
	return reuseRelation{t}
}

// Segments splits the table's pages into n contiguous ranges of roughly
// equal page count for parallel scanning. It flushes the tail page first.
func (t *Table) Segments(n int) ([][2]int, error) {
	h := t.pages()
	if err := h.Flush(); err != nil {
		return nil, err
	}
	return rowSegments(h.NumPages(), n), nil
}

// Shuffle randomly permutes the table rows on disk the way ORDER BY
// RANDOM() does: every row is decoded, tagged with a random sort key,
// sorted, re-encoded and written back as a full table rewrite. This is
// deliberately NOT a cheap in-place permutation — the cost of this operator
// is exactly the shuffle overhead §3.2 measures (it dominates the gradient
// work for simple tasks).
func (t *Table) Shuffle(rng *rand.Rand) error {
	type keyed struct {
		k  float64
		tp Tuple
	}
	var rows []keyed
	err := t.Scan(func(tp Tuple) error {
		rows = append(rows, keyed{k: rng.Float64(), tp: tp})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	out := make([][]byte, len(rows))
	for i := range rows {
		out[i] = rows[i].tp.Encode()
	}
	if err := t.pages().Rewrite(out); err != nil {
		return err
	}
	t.version.Add(1)
	return nil
}

// ClusterBy physically rewrites the table ordered by the given key — the
// engine operation that produces the paper's pathological "clustered"
// layouts (e.g., all positive labels before all negatives).
func (t *Table) ClusterBy(key func(Tuple) float64) error {
	type rec struct {
		k float64
		b []byte
	}
	var recs []rec
	sc := NewTupleScratch(t.Schema)
	err := t.pages().Scan(func(b []byte) error {
		tp, err := t.decode(b, sc)
		if err != nil {
			return err
		}
		recs = append(recs, rec{k: key(tp), b: append([]byte(nil), b...)})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].k < recs[j].k })
	out := make([][]byte, len(recs))
	for i := range recs {
		out[i] = recs[i].b
	}
	if err := t.pages().Rewrite(out); err != nil {
		return err
	}
	t.version.Add(1)
	return nil
}

// SchemaMismatchError reports an attempted raw-record copy between tables
// whose physical schemas differ. Col is the first mismatched column index,
// or -1 when the arities differ.
type SchemaMismatchError struct {
	Src, Dst           string
	Col                int
	SrcArity, DstArity int
	SrcType, DstType   Type
}

// Error implements error.
func (e *SchemaMismatchError) Error() string {
	if e.Col < 0 {
		return fmt.Sprintf("engine: schema mismatch copying %s into %s: %d columns vs %d",
			e.Src, e.Dst, e.SrcArity, e.DstArity)
	}
	return fmt.Sprintf("engine: schema mismatch copying %s into %s: column %d is type %d vs %d",
		e.Src, e.Dst, e.Col, e.SrcType, e.DstType)
}

// CopyTo appends every row of t into dst. It copies raw encoded records, so
// the schemas must match in arity AND column type — same-arity tables with
// different types would otherwise accept mis-typed records that only
// surface later as a *CorruptRecordError on decode. Column names may
// differ; only the physical layout matters. Into an empty file table, from
// a source with no quarantined page, it writes the source's pages whole in
// extents (Heap.copyPages); otherwise it appends record by record.
func (t *Table) CopyTo(dst *Table) error {
	if len(t.Schema) != len(dst.Schema) {
		return &SchemaMismatchError{Src: t.Name, Dst: dst.Name, Col: -1,
			SrcArity: len(t.Schema), DstArity: len(dst.Schema)}
	}
	for i := range t.Schema {
		if t.Schema[i].Type != dst.Schema[i].Type {
			return &SchemaMismatchError{Src: t.Name, Dst: dst.Name, Col: i,
				SrcArity: len(t.Schema), DstArity: len(dst.Schema),
				SrcType: t.Schema[i].Type, DstType: dst.Schema[i].Type}
		}
	}
	src, to := t.pages(), dst.pages()
	var err error
	if to.emptyFile() && src.QuarantinedPages() == nil {
		err = to.copyPages(src)
	} else {
		err = src.Scan(to.Append) // Append copies the record into its page
	}
	dst.version.Add(1)
	return err
}

// Close releases the table's heap.
func (t *Table) Close() error { return t.heap.Close() }

// Catalog is a registry of tables, optionally file-backed under a directory.
type Catalog struct {
	mu        sync.Mutex
	saveMu    sync.Mutex // serializes Save/SaveMeta/Swap disk writes, outside mu
	dir       string     // empty = in-memory tables
	poolPages int
	tables    map[string]*Table
	// pending (guarded by mu) maps a final table name to the shadow heap
	// name its committed-but-unrenamed swap data still lives in. Entries
	// are added at a swap's commit point and removed as each heap rename
	// lands, so every checkpoint between the two re-emits the generation
	// marker — a live process surviving a post-commit rename failure can
	// never write a catalog.json that forgets the roll-forward is owed.
	pending map[string]string
	// gens holds the per-name generation counters (name → *atomic.Uint64)
	// behind Generation/GenHandle — see generation.go. A sync.Map because
	// the whole point is that readers poll it without touching mu.
	gens sync.Map

	// Hooks instruments the swap protocol's crash windows for
	// fault-injection tests. Zero value: no instrumentation.
	Hooks CatalogHooks

	// IO instruments the file stores under every table with I/O-level
	// fault injection (OpenFileCatalogIO wires it in before any heap is
	// opened; tests may also fill it in after NewFileCatalog, before the
	// tables under test are created). Zero value: no instrumentation.
	IO IOHooks

	// Recovery records what OpenFileCatalog's recovery sweep found and did.
	Recovery RecoveryReport
}

// NewCatalog returns an in-memory catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), pending: make(map[string]string)}
}

// NewFileCatalog returns a catalog whose tables are file-backed under dir.
func NewFileCatalog(dir string, poolPages int) *Catalog {
	return &Catalog{dir: dir, poolPages: poolPages,
		tables: make(map[string]*Table), pending: make(map[string]string)}
}

// ValidTableName rejects names that could escape the catalog directory
// when used as heap file names (file catalogs store each table at
// dir/<name>.heap, and names arrive from untrusted statements once a
// catalog is served over TCP). Create enforces it; the statement layer
// also checks destinations up front so a long training run cannot fail
// only at save time.
func ValidTableName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: empty table name")
	}
	// Path separators are the only way a name can traverse out of dir:
	// "<name>.heap" with ".." in it is just an odd filename, never a
	// parent reference.
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("engine: invalid table name %q (path separators are not allowed)", name)
	}
	// Filesystem NAME_MAX is typically 255; capping well below leaves room
	// for the ".heap" extension and derived side-table suffixes.
	if len(name) > 128 {
		return fmt.Errorf("engine: invalid table name %q... (longer than 128 bytes)", name[:32])
	}
	// Control bytes (a quoted statement name can carry NUL, newline, ...)
	// make invalid or junk heap filenames — on a file catalog they would
	// surface only at save time, after the training run.
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return fmt.Errorf("engine: invalid table name %q (control characters are not allowed)", name)
		}
	}
	return nil
}

// Create makes a new table, failing if the name exists. On file catalogs
// it also rejects names that collide case-insensitively with an existing
// table: the map keys are case-sensitive but on a case-insensitive
// filesystem (macOS, Windows) "m.heap" and "M.heap" are one file, and two
// tables silently appending into one heap corrupt both.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	if err := ValidTableName(name); err != nil {
		return nil, err
	}
	t, _, err := c.create(name, schema, false, false)
	return t, err
}

// create registers a new table. trusted skips the case-collision check:
// OpenFileCatalog passes it for names already recorded in the local
// catalog.json — possibly written by an older release with laxer rules —
// because refusing one legacy name would strand every other table in the
// catalog (Create alone also runs ValidTableName). repairTail additionally
// truncates a torn (non-page-aligned) heap tail back to the last full
// page, returning the bytes cut; recovery grants it only to tables outside
// model pairs.
func (c *Catalog) create(name string, schema Schema, trusted, repairTail bool) (*Table, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, 0, fmt.Errorf("engine: table %q already exists", name)
	}
	if !trusted && c.dir != "" {
		for existing := range c.tables {
			if strings.EqualFold(existing, name) {
				return nil, 0, fmt.Errorf("engine: table name %q collides case-insensitively with existing %q", name, existing)
			}
		}
	}
	var t *Table
	var repaired int64
	var err error
	if c.dir == "" {
		t = NewMemTable(name, schema)
	} else {
		t, repaired, err = newFileTable(c.dir, name, schema, c.poolPages, &c.IO, repairTail)
		if err != nil {
			return nil, 0, err
		}
	}
	c.tables[name] = t
	c.bumpGen(name)
	return t, repaired, nil
}

// FindCaseConflict returns an existing table name equal to name under
// case folding but not byte-equal — a pair whose heap files would collide
// on a case-insensitive filesystem. Only meaningful for file catalogs
// (returns ""); the statement layer uses it to fail a TRAIN before the
// epochs run rather than at save time.
func (c *Catalog) FindCaseConflict(name string) string {
	if c.dir == "" {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for existing := range c.tables {
		if existing != name && strings.EqualFold(existing, name) {
			return existing
		}
	}
	return ""
}

// Get looks a table up by name.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// Drop removes and closes a table, deleting its backing heap file — a
// dropped-then-recreated table must come back empty, not reopen its old
// rows from disk. The drop is a force-close: the entry leaves the catalog
// and the heap file is removed even when Close fails (the alternative —
// keeping the entry — would leave a table the caller can neither use nor
// retry dropping, since the close already tore down the handle). Every
// failure is reported; a Close error no longer swallows a Remove error.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	delete(c.tables, name)
	delete(c.pending, name)
	c.bumpGen(name)
	closeErr := t.Close()
	var rmErr error
	if c.dir != "" {
		if rmErr = os.Remove(c.heapPath(name)); os.IsNotExist(rmErr) {
			rmErr = nil
		}
	}
	return errors.Join(closeErr, rmErr)
}

// heapPath returns the heap file backing a table name (file catalogs).
func (c *Catalog) heapPath(name string) string {
	return filepath.Join(c.dir, name+".heap")
}

// Names returns the sorted table names. Reserved shadow names (in-flight
// generations mid-Swap) are internal and excluded: a shadow is not a table
// until its swap commits.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		if IsShadowName(n) {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close closes every table.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, t := range c.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.tables = make(map[string]*Table)
	return first
}
