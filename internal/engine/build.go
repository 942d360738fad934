package engine

import (
	"fmt"
	"math"
	"sync"
)

// buildChunkPages is the block of the ordered passes over a heap: the pages
// a worker decodes — or, at open, verifies — before it claims the next. It
// is also the extent: the most pages a whole-heap pass reads, or CopyTo
// writes, with one syscall.
const buildChunkPages = 64

// Projection is what an ordered build writes: the output layout, which
// source rows it keeps, and where each output column takes its cells.
type Projection struct {
	// Schema is the output layout.
	Schema Schema
	// Rows estimates the output row count and sizes the slabs; 0 leaves
	// them to grow, as a filter of unknown selectivity must.
	Rows int
	// Cols says where each output column takes its cells from; nil takes
	// the source's columns as they are.
	Cols []ColFrom
	// Keep reports whether to keep a source row; nil keeps every row. It
	// sees the row's scalar columns decoded and its vector columns empty.
	// Workers call it concurrently, each with a row of its own, and the
	// row does not outlive the call.
	Keep func(Tuple) (bool, error)
	// Degraded skips and counts quarantined pages and records that no
	// longer decode, instead of failing on the first.
	Degraded bool
}

// ColFrom says where an output column of a projection takes its cells.
type ColFrom struct {
	Kind ColKind
	Src  int // the source column of FromSource and IntToFloat
}

// ColKind is how a projection fills an output column.
type ColKind uint8

// Column kinds.
const (
	// FromSource copies source column Src, whose type is the output's.
	FromSource ColKind = iota
	// IntToFloat casts int64 source column Src into a float64 column.
	IntToFloat
	// RowNumber numbers an int64 column with each row's position in the
	// output, from 0.
	RowNumber
	// ZeroFill fills the column with its type's zero: 0, "" or an empty
	// vector.
	ZeroFill
)

// plan returns p's column plan over source layout src, checked against
// both layouts.
func (p *Projection) plan(src Schema) ([]ColFrom, error) {
	cols := p.Cols
	if cols == nil {
		cols = make([]ColFrom, len(src))
		for c := range cols {
			cols[c].Src = c
		}
	}
	if len(cols) != len(p.Schema) {
		return nil, fmt.Errorf("engine: projection plans %d columns for a %d-column layout", len(cols), len(p.Schema))
	}
	for c, from := range cols {
		want, have := p.Schema[c].Type, Type(0)
		if from.Src >= 0 && from.Src < len(src) {
			have = src[from.Src].Type
		}
		if !(from.Kind == FromSource && have == want || from.Kind == IntToFloat && have == TInt64 && want == TFloat64 ||
			from.Kind == RowNumber && want == TInt64 || from.Kind == ZeroFill && want >= TInt64 && want <= TInt32Vec) {
			return nil, fmt.Errorf("engine: projection cannot fill %s column %d with %+v", want, c, from)
		}
	}
	return cols, nil
}

// Project builds a slab-only table named name from t's rows under p, in
// storage order, and reports what a degraded build skipped.
func (t *Table) Project(name string, p Projection) (*Table, DegradedStats, error) {
	m, stats, err := t.build(p)
	if err != nil {
		return nil, stats, err
	}
	return slabTable(name, m), stats, nil
}

// build decodes t's pages into one set of slabs, in storage order, each
// kept record's cells written from its bytes by MatBuilder.appendRecord.
// One worker is the sequential scan: every row goes straight into the
// slabs. Several workers claim buildChunkPages-page chunks
// in order and decode each with ScanPages semantics: a chain that starts in
// the chunk is followed past its end, leading continuation pages are
// skipped, and the in-memory tail belongs to the last chunk. Either way
// each worker reads its pages in extents, into a buffer of its own and past
// the buffer pool; a chain that runs past a chunk's end continues into the
// next extent.
//
// Each chunk decodes into its worker's chunk buffer, then, one turn each in
// chunk order, publishes the buffer's row and entry counts, hands the turn
// on, and copies the buffer into the range it published while later chunks
// publish. So every worker writes into the one final set of slabs and takes
// its share of their page faults — slabs built per worker and concatenated
// would take every fault twice. A build runs on no more than one worker per
// chunksPerWorker chunks, which keeps the chunk buffers below a quarter of
// the heap's bytes and puts every table under 8 chunks on one worker.
//
// The slabs are sized as MatBuilder sizes them — p.Rows × the first row's
// widths, bounded by the heap's bytes — and a chunk whose rows do not fit
// grows them at its turn, under the write lock, by at least a quarter. A
// failed chunk publishes too, at its turn, so the build returns the error
// of the lowest failing chunk: the page a sequential scan reports. Slabs of
// 4 MB or more take the huge page hint as they are made, and every return
// of the build withdraws it (thp_linux.go).
func (t *Table) build(p Projection) (*Materialized, DegradedStats, error) {
	cols, err := p.plan(t.Schema)
	if err != nil {
		return nil, DegradedStats{}, err
	}
	h := t.pages()
	np := h.NumPages()
	nchunks := max(1, (np+buildChunkPages-1)/buildChunkPages)
	workers := max(1, min(Workers(), nchunks/chunksPerWorker))
	ob := &orderedBuild{t: t, h: h, p: p, cols: cols, np: np, chunks: make([]*chunkState, workers),
		ents: make([]int, len(p.Schema)), out: NewMatBuilder(p.Schema, p.Rows, (np+1)*PageSize)}
	defer ob.out.huge.withdraw()
	if workers == 1 {
		return ob.sequential()
	}
	ob.chunkRows = (p.Rows*buildChunkPages + np - 1) / np
	ob.cond.L = &ob.mu
	if err := RunBlocks(workers, nchunks, ob.chunk); err != nil {
		return nil, DegradedStats{}, err
	}
	return ob.finish(), ob.stats, nil
}

// chunksPerWorker is how many chunks a build gives each worker at least.
const chunksPerWorker = 4

// orderedBuild is one build's shared state.
type orderedBuild struct {
	t         *Table
	h         *Heap
	p         Projection
	cols      []ColFrom // p's checked column plan
	np        int
	chunkRows int           // the rows a chunk buffer is sized for
	chunks    []*chunkState // per worker

	// The turn passes from chunk to chunk in order under mu. Only the chunk
	// holding it reads or writes the fields between here and slabMu, and
	// resizes the slabs.
	mu     sync.Mutex
	cond   sync.Cond
	turn   int  // the chunk that publishes next
	failed bool // a chunk failed: no later chunk publishes

	reach int           // the first page the published chunks did not consume
	rows  int           // rows published
	ents  []int         // vector entries published, per column
	stats DegradedStats // what the published chunks skipped

	// slabMu guards the slab headers in out: chunks copy rows in under the
	// read lock, each into its own range; the turn holder reserves and grows
	// them under the write lock. A slab's len is its cap until finish.
	slabMu sync.RWMutex
	out    *MatBuilder
}

// chunkState is one worker's decode state, reused from chunk to chunk.
type chunkState struct {
	ob     *orderedBuild
	fields []field     // the record being decoded, parsed
	keep   Tuple       // the row Keep sees
	buf    *MatBuilder // the chunk buffer a chunk is staged in
	to     *MatBuilder // where decoded rows go: buf, or the slabs of a sequential build
	read   pageReader  // the worker's extents, for the whole pass
	decode func(rec []byte) error
	bad    int // records a degraded pass could not decode

	// The staged chunk's rows go to [base, lim) and column c's entries to
	// [at[c], limEnts[c]).
	base, lim   int
	at, limEnts []int
}

// sequential is the one-worker build: one scan of the whole heap, each kept
// row written into the slabs as it is decoded. A panic fails it as it fails
// a chunk.
func (ob *orderedBuild) sequential() (*Materialized, DegradedStats, error) {
	cs := ob.worker(0)
	cs.to = ob.out
	err := Contain(func() error {
		s, err := cs.scan(0, ob.np)
		ob.stats = s.DegradedStats
		return err
	})
	if err != nil {
		return nil, DegradedStats{}, err
	}
	return ob.out.Build(0), ob.stats, nil
}

// chunk builds chunk k on worker w.
func (ob *orderedBuild) chunk(w, k int) error {
	cs := ob.worker(w)
	turned := false
	defer func() {
		// A panic still hands the turn on, failed, so no later chunk waits
		// for this one forever.
		if !turned && ob.await(k) {
			ob.pass(true)
		}
	}()
	from, to := k*buildChunkPages, min((k+1)*buildChunkPages, ob.np)
	s, err := cs.stage(from, to)
	if !ob.await(k) {
		turned = true
		return nil
	}
	if ob.reach > from && s.lead < ob.reach {
		// An earlier chunk's overflow chain ran into this one, and this
		// pass did more with its pages than skip them as continuations:
		// they are corrupt. Decode from where the chain ended, as one
		// sequential scan would have.
		from = min(ob.reach, to)
		s, err = cs.stage(from, to)
	}
	if err == nil {
		err = ob.claim(cs)
	}
	if err == nil {
		ob.publish(s, cs.lim, cs.limEnts)
	}
	turned = true
	ob.pass(err != nil)
	if err != nil {
		return err
	}
	ob.place(cs)
	return nil
}

// worker returns worker w's decode state, built on its first chunk.
func (ob *orderedBuild) worker(w int) *chunkState {
	if cs := ob.chunks[w]; cs != nil {
		return cs
	}
	n := len(ob.p.Schema)
	cs := &chunkState{ob: ob, fields: make([]field, len(ob.t.Schema)),
		buf:  NewMatBuilder(ob.p.Schema, ob.chunkRows, (buildChunkPages+1)*PageSize),
		read: ob.h.st.bulk(ob.np), at: make([]int, n), limEnts: make([]int, n)}
	if ob.p.Keep != nil {
		cs.keep = make(Tuple, len(ob.t.Schema))
	}
	cs.decode = cs.decodeRec
	ob.chunks[w] = cs
	return cs
}

// scan decodes pages [from, to), read in extents, into cs.to.
func (cs *chunkState) scan(from, to int) (scanned, error) {
	cs.bad = 0
	s, err := cs.ob.h.scanRange(from, to, cs.ob.p.Degraded, cs.read, cs.decode)
	s.SkippedRows += cs.bad
	return s, err
}

// decodeRec parses one record and, if Keep keeps it, writes its row into
// cs.to: no tuple is built unless Keep needs one, and then only of scalars.
func (cs *chunkState) decodeRec(rec []byte) error {
	ob := cs.ob
	schema := ob.t.Schema
	if bad := parseRecord(rec, schema, cs.fields); bad.kind != 0 {
		if ob.p.Degraded {
			cs.bad++
			return nil
		}
		return ob.t.named(bad.err())
	}
	if ob.p.Keep != nil {
		for c, f := range cs.fields {
			scalarCell(&cs.keep[c], schema[c].Type, rec, f)
		}
		if keep, err := ob.p.Keep(cs.keep); err != nil || !keep {
			return err
		}
	}
	return cs.to.appendRecord(rec, cs.fields, ob.cols)
}

// stage decodes pages [from, to) into the chunk buffer.
func (cs *chunkState) stage(from, to int) (scanned, error) {
	cs.buf.truncate()
	cs.to = cs.buf
	return cs.scan(from, to)
}

// await blocks until chunk k holds the turn; false means an earlier chunk
// failed and k's rows are not wanted.
func (ob *orderedBuild) await(k int) bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for ob.turn != k && !ob.failed {
		ob.cond.Wait()
	}
	return !ob.failed
}

// pass hands the turn to the next chunk; failed stops every later one.
func (ob *orderedBuild) pass(failed bool) {
	ob.mu.Lock()
	ob.turn++
	ob.failed = ob.failed || failed
	ob.mu.Unlock()
	ob.cond.Broadcast()
}

// capacity is how many rows and vector entries column c's slabs hold.
func (ob *orderedBuild) capacity(c int) (rows, ents int) {
	col := &ob.out.cols[c]
	return min(room(col.ints), room(col.flts), room(col.strs), room(col.offs)-1), min(room(col.f64s), room(col.i32s))
}

// publish moves the published rows and entries on to where the turn
// holder's rows end.
func (ob *orderedBuild) publish(s scanned, rows int, ents []int) {
	ob.rows = rows
	copy(ob.ents, ents)
	ob.stats.Add(s.DegradedStats)
	ob.reach = max(ob.reach, s.next)
}

// claim gives a staged chunk its range after the published rows, reserving
// the slabs from the build's first row and growing them when the range
// outruns them. Only the turn holder calls it.
func (ob *orderedBuild) claim(cs *chunkState) error {
	buf := cs.buf
	cs.base, cs.lim = ob.rows, ob.rows+buf.n
	for c := range ob.ents {
		cs.at[c], cs.limEnts[c] = ob.ents[c], ob.ents[c]
		if offs := buf.cols[c].offs; offs != nil {
			cs.limEnts[c] += int(offs[buf.n])
		}
		if cs.limEnts[c] > math.MaxInt32 {
			return &SlabOverflowError{Count: cs.limEnts[c]}
		}
	}
	if cs.lim > math.MaxInt32 {
		return &SlabOverflowError{Count: cs.lim}
	}
	if buf.n == 0 || ob.out.reserved && ob.roomFor(cs) {
		return nil
	}
	ob.slabMu.Lock()
	defer ob.slabMu.Unlock()
	if !ob.out.reserved {
		ob.out.reserve(func(c int) int { return buf.cols[c].width(0) })
	}
	ob.grow(cs.lim, cs.limEnts)
	return nil
}

// grow makes the slabs hold n rows and ents[c] entries of column c, and
// stretches each to its capacity. The caller holds the write lock.
func (ob *orderedBuild) grow(n int, ents []int) {
	r := &ob.out.huge
	for c := range ob.out.cols {
		col, e := &ob.out.cols[c], ents[c]
		col.ints, col.flts, col.strs = fit(r, col.ints, n), fit(r, col.flts, n), fit(r, col.strs, n)
		col.f64s, col.i32s, col.offs = fit(r, col.f64s, e), fit(r, col.i32s, e), fit(r, col.offs, n+1)
	}
}

// roomFor reports whether the slabs already hold the chunk's range.
func (ob *orderedBuild) roomFor(cs *chunkState) bool {
	for c := range cs.limEnts {
		if rows, ents := ob.capacity(c); rows < cs.lim || ents < cs.limEnts[c] {
			return false
		}
	}
	return true
}

// place copies a staged chunk into the range its turn claimed, rebasing
// its vector offsets and numbering its rows.
func (ob *orderedBuild) place(cs *chunkState) {
	buf := cs.buf
	if buf.n == 0 {
		return
	}
	ob.slabMu.RLock()
	defer ob.slabMu.RUnlock()
	base := cs.base
	for c := range ob.out.cols {
		src, dst, e := &buf.cols[c], &ob.out.cols[c], cs.at[c]
		copyAt(dst.ints, base, src.ints)
		copyAt(dst.flts, base, src.flts)
		copyAt(dst.strs, base, src.strs)
		copyAt(dst.f64s, e, src.f64s)
		copyAt(dst.i32s, e, src.i32s)
		if src.offs != nil {
			for i, o := range src.offs[1:] {
				dst.offs[base+1+i] = int32(e) + o
			}
		}
		if ob.cols[c].Kind == RowNumber {
			for i := range buf.n {
				dst.ints[base+i] = int64(base + i)
			}
		}
	}
}

// finish trims the slabs to what was published and hands them over.
func (ob *orderedBuild) finish() *Materialized {
	n := ob.rows
	for c := range ob.out.cols {
		col, e := &ob.out.cols[c], ob.ents[c]
		col.ints, col.flts, col.strs = trim(col.ints, n), trim(col.flts, n), trim(col.strs, n)
		col.f64s, col.i32s, col.offs = trim(col.f64s, e), trim(col.i32s, e), trim(col.offs, n+1)
	}
	ob.out.n = n
	return ob.out.Build(0)
}

// The slab helpers pass a nil slab through: it belongs to no column of its
// type.

// room is how many elements slab s holds (no bound for a nil slab).
func room[T any](s []T) int {
	if s == nil {
		return math.MaxInt
	}
	return len(s)
}

// fit grows s to hold n elements, by at least a quarter as append grows a
// large slice, keeping its contents, and returns it at its full capacity.
// The new slab takes the huge page hint before its contents are copied in,
// and the one it replaces gives its hint up.
func fit[T any](r *hugeRanges, s []T, n int) []T {
	if s == nil {
		return nil
	}
	if n > cap(s) {
		grown := append(slab[T](r, max(n, cap(s)+cap(s)/4)), s[:cap(s)]...)
		dropHuge(r, s)
		s = grown
	}
	return s[:cap(s)]
}

// copyAt copies src into dst from index at; a slab with nothing to copy
// may have no dst.
func copyAt[T any](dst []T, at int, src []T) {
	if len(src) > 0 {
		copy(dst[at:], src)
	}
}

// trim cuts s to its first n elements.
func trim[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}
