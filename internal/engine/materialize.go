package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
)

// This file implements the decoded-row cache of the zero-allocation epoch
// pipeline. Bismarck's epoch loop is a scan-bound aggregation query: the
// seed engine paid a full decode-and-allocate pass per row per epoch, so a
// 20-epoch run allocated ~20x the dataset and burned GC and memory
// bandwidth instead of gradient FLOPs. A Materialized is a columnar,
// immutable, decoded copy of a table built once (epoch 0 touches page
// bytes, later epochs touch only the slabs), keyed to the table's version
// counter so any physical mutation — Insert, Shuffle, ClusterBy, Rewrite —
// invalidates it. Logical reordering (the ShuffleOnce/ShuffleAlways
// strategies when the engine profile does not charge physical-rewrite cost)
// permutes a per-trainer MatView row index instead of rewriting the heap.

// Materialized is an immutable decoded copy of a table in columnar form:
// one contiguous slab per numeric column (all dense-vector components of a
// column share one []float64, all sparse indices one []int32, ...) plus
// per-row offsets into them. There are no stored row headers: a scan
// assembles each row in one scratch tuple it owns, overwritten by the next
// row, so a consumer that keeps a row keeps its Clone, as from a table scan.
type Materialized struct {
	version uint64
	schema  Schema
	cols    []matCol
	n       int
	// idx lists the slab rows this cache exposes, in order (nil: all of
	// them); a shard is its source's slabs under an idx of its own.
	idx []int32
	// shuffled: idx is a random order this value owns (MatView.Permute set
	// it), so Permute may reshuffle it in place and scans gather ahead.
	shuffled bool
}

// matCol is one column's slabs; only the fields of the column's type are
// used. Vector columns keep row r's entries at [offs[r], offs[r+1]).
type matCol struct {
	ints []int64
	flts []float64
	strs []string
	f64s []float64 // dense components / sparse values
	i32s []int32   // sparse indices / int32 entries
	offs []int32
}

// NumRows returns the number of cached rows.
func (m *Materialized) NumRows() int { return m.n }

// Version returns the table version the cache was built against.
func (m *Materialized) Version() uint64 { return m.version }

// load points row at the cache's row i.
func (m *Materialized) load(row Tuple, i int) {
	r := i
	if m.idx != nil {
		r = int(m.idx[i])
	}
	for c := range m.cols {
		col, v := &m.cols[c], &row[c]
		v.Type = m.schema[c].Type
		switch v.Type {
		case TInt64:
			v.Int = col.ints[r]
		case TFloat64:
			v.Float = col.flts[r]
		case TString:
			v.Str = col.strs[r]
		case TDenseVec:
			lo, hi := col.offs[r], col.offs[r+1]
			v.Dense = col.f64s[lo:hi:hi]
		case TSparseVec:
			lo, hi := col.offs[r], col.offs[r+1]
			v.Sparse.Idx = col.i32s[lo:hi:hi]
			v.Sparse.Val = col.f64s[lo:hi:hi]
		case TInt32Vec:
			lo, hi := col.offs[r], col.offs[r+1]
			v.Ints = col.i32s[lo:hi:hi]
		}
	}
}

// Scan visits every cached row in order.
func (m *Materialized) Scan(fn func(Tuple) error) error { return m.ScanSegment(0, m.n, fn) }

// BlockRows is the block of the read-only passes over a cache: each block's
// rows are visited in order on one worker, and a pass combines its blocks'
// results in block order, so the result does not depend on the worker count.
const BlockRows = 4096

// Blocks is how many BlockRows-row blocks the cached rows split into.
func (m *Materialized) Blocks() int { return (m.n + BlockRows - 1) / BlockRows }

// ScanBlock visits the rows of block b in order.
func (m *Materialized) ScanBlock(b int, fn func(Tuple) error) error {
	return m.ScanSegment(b*BlockRows, min((b+1)*BlockRows, m.n), fn)
}

// gatherRows is the block a shuffled scan reads ahead of its callbacks.
const gatherRows = 64

// ScanSegment visits rows [from, to) in order — the row-granular analogue
// of Table.ScanSegment — through one scratch tuple. A shuffled index visits
// them in blocks of gatherRows, each gathered before its first callback:
// in random order every row is a cache and TLB miss, and the gather puts a
// block's misses in flight together instead of stalling on them one by one.
// Ascending and strided indexes skip it; the hardware prefetcher has them.
func (m *Materialized) ScanSegment(from, to int, fn func(Tuple) error) error {
	if from < 0 || to > m.n || from > to {
		return fmt.Errorf("engine: cached segment [%d,%d) out of [0,%d]", from, to, m.n)
	}
	row := make(Tuple, len(m.schema))
	for i := from; i < to; i++ {
		if m.shuffled && (i-from)%gatherRows == 0 {
			m.gather(m.idx[i:min(i+gatherRows, to)])
		}
		m.load(row, i)
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// gather reads one word of every cache line the given slab rows occupy:
// the scalar cells and vector offsets first, then the vector entries their
// offsets locate. String contents are not read. The sums only keep the
// loads alive; they are local because concurrent scans share the view.
func (m *Materialized) gather(rows []int32) {
	var ints int64
	var flts float64
	for c := range m.cols {
		col, typ := &m.cols[c], m.schema[c].Type
		for _, r := range rows {
			switch typ {
			case TInt64:
				ints += col.ints[r]
			case TFloat64:
				flts += col.flts[r]
			case TString:
				ints += int64(len(col.strs[r]))
			default:
				ints += int64(col.offs[r]) + int64(col.offs[r+1])
			}
		}
	}
	for c := range m.cols {
		col, typ := &m.cols[c], m.schema[c].Type
		if typ <= TString { // not a vector type
			continue
		}
		for _, r := range rows {
			lo, hi := col.offs[r], col.offs[r+1]
			if typ != TInt32Vec {
				flts += lineSum(col.f64s[lo:hi], 8)
			}
			if typ != TDenseVec {
				ints += int64(lineSum(col.i32s[lo:hi], 16))
			}
		}
	}
	runtime.KeepAlive(ints)
	runtime.KeepAlive(flts)
}

// lineSum adds one entry of every 64-byte cache line s spans, perLine
// entries to a line.
func lineSum[T int32 | float64](s []T, perLine int) T {
	var sum T
	for k := 0; k < len(s); k += perLine {
		sum += s[k]
	}
	if len(s) > 0 {
		sum += s[len(s)-1]
	}
	return sum
}

// VecDim is the dimension of vector column col over the cached rows, read
// from its slab offsets: the most components of a dense row, or one past
// the last (largest) index of a sparse row, as vector.Sparse.MaxIdx gives
// it. It is 0 for a column of another type or rows with no entries.
func (m *Materialized) VecDim(col int) int {
	c, ty := &m.cols[col], m.schema[col].Type
	if ty != TDenseVec && ty != TSparseVec {
		return 0
	}
	dim := 0
	for i := range m.n {
		r := i
		if m.idx != nil {
			r = int(m.idx[i])
		}
		lo, hi := c.offs[r], c.offs[r+1]
		if ty == TDenseVec {
			dim = max(dim, int(hi-lo))
		} else if hi > lo {
			dim = max(dim, int(c.i32s[hi-1])+1)
		}
	}
	return dim
}

// Segments splits the rows into n contiguous ranges of roughly equal size.
func (m *Materialized) Segments(n int) ([][2]int, error) {
	return rowSegments(m.n, n), nil
}

// subset returns a cache over the same slabs exposing only the given rows
// (positions of m, in the order given; the slice is kept).
func (m *Materialized) subset(rows []int32) *Materialized {
	if m.idx != nil {
		for i, r := range rows {
			rows[i] = m.idx[r]
		}
	}
	sub := *m
	sub.n, sub.idx = len(rows), rows
	return &sub
}

// View returns a fresh logically-ordered view over the cache. Each trainer
// run takes its own view so one run's shuffle cannot leak into another's
// notion of "stored order".
func (m *Materialized) View() *MatView {
	v := &MatView{Materialized: *m}
	v.shuffled = false // the index stays shared until the view's first Permute
	return v
}

// MatView is one trainer's ordered view over a materialization: the same
// slabs under a row order that logical shuffles mutate. Until the first
// Permute it shares the cache's order, so an unshuffled view costs nothing.
// Views are not safe for concurrent mutation; trainers permute between
// epochs only.
type MatView struct {
	Materialized
}

// Permute reshuffles the view's row order in place — the logical equivalent
// of the ORDER BY RANDOM() table rewrite, at the cost of an O(n) index
// shuffle instead of a full decode-sort-encode pass over the heap.
func (v *MatView) Permute(rng *rand.Rand) {
	if !v.shuffled {
		own := make([]int32, v.n)
		if v.idx != nil {
			copy(own, v.idx)
		} else {
			for i := range own {
				own[i] = int32(i)
			}
		}
		v.idx, v.shuffled = own, true
	}
	rng.Shuffle(v.n, func(i, j int) { v.idx[i], v.idx[j] = v.idx[j], v.idx[i] })
}

// rowSegments splits [0, rows) — rows of a cache, pages of a heap — into n
// roughly equal contiguous ranges.
func rowSegments(rows, n int) [][2]int {
	if n < 1 {
		n = 1
	}
	if rows == 0 {
		return [][2]int{{0, 0}}
	}
	if n > rows {
		n = rows
	}
	segs := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		segs = append(segs, [2]int{i * rows / n, (i + 1) * rows / n})
	}
	return segs
}

// MatBuilder accumulates rows into the columnar slabs of a Materialized.
// The ordered build (Table.Materialize, Table.Project) writes its slabs
// with one and stages its workers' chunks in others, one parsed record at a
// time (appendRecord).
type MatBuilder struct {
	schema Schema
	cols   []matCol
	n      int
	// The first row sizes every slab for rows rows of the first row's
	// widths, so fixed-width data never regrows (0 leaves growth to append).
	// srcBytes, the encoded size of the rows' source, bounds the vector
	// slabs between them: a decoded vector is no larger than its record, so
	// one wide first row cannot reserve more than the data could fill.
	rows, srcBytes int
	reserved       bool
	// huge is the slab memory that took the huge page hint; the build
	// that owns the builder withdraws it.
	huge hugeRanges
}

// NewMatBuilder returns a builder for the given schema expecting about
// rows rows decoded from srcBytes of heap.
func NewMatBuilder(schema Schema, rows, srcBytes int) *MatBuilder {
	return &MatBuilder{schema: schema, cols: make([]matCol, len(schema)), rows: rows, srcBytes: srcBytes}
}

// entries returns the capacity to reserve for rows rows of width entries of
// size bytes each, taking it out of the srcBytes left.
func (b *MatBuilder) entries(width, size int) int {
	n := min(b.rows*width, b.srcBytes/size)
	b.srcBytes -= n * size
	return n
}

// reserve sizes the slabs from the first row, whose vector column c holds
// width(c) entries.
func (b *MatBuilder) reserve(width func(c int) int) {
	b.reserved = true
	r := &b.huge
	for c := range b.cols {
		col := &b.cols[c]
		switch b.schema[c].Type {
		case TInt64:
			col.ints = slab[int64](r, b.rows)
		case TFloat64:
			col.flts = slab[float64](r, b.rows)
		case TString:
			col.strs = slab[string](r, b.rows)
		case TDenseVec:
			col.f64s = slab[float64](r, b.entries(width(c), 8))
		case TSparseVec:
			col.i32s = slab[int32](r, b.entries(width(c), 12))
			col.f64s = slab[float64](r, cap(col.i32s))
		case TInt32Vec:
			col.i32s = slab[int32](r, b.entries(width(c), 4))
		}
		if b.schema[c].Type > TString { // the vector types
			col.offs = append(slab[int32](r, b.rows+1), 0)
		}
	}
}

// slab returns an empty slab of capacity n whose memory took the huge page
// hint, recorded in r, before anything was written into it.
func slab[T any](r *hugeRanges, n int) []T {
	s := make([]T, 0, n)
	adviseHuge(r, s)
	return s
}

// width is how many entries row r of a vector column holds.
func (c *matCol) width(r int) int {
	if c.offs == nil {
		return 0
	}
	return int(c.offs[r+1] - c.offs[r])
}

// SlabOverflowError reports a cache that would outgrow the int32 its slabs
// are indexed by: more than 2³¹−1 rows, or more than 2³¹−1 entries in one
// vector column.
type SlabOverflowError struct {
	Count int
}

// Error implements error.
func (e *SlabOverflowError) Error() string {
	return fmt.Sprintf("engine: a cache of %d rows or vector entries exceeds the %d its int32 indexes hold",
		e.Count, math.MaxInt32)
}

// endRow closes a vector column's row at slab length n.
func (c *matCol) endRow(n int) error {
	if n > math.MaxInt32 {
		return &SlabOverflowError{Count: n}
	}
	c.offs = append(c.offs, int32(n))
	return nil
}

// appendRecord writes one output row into the slabs from rec, a record
// parseRecord accepted into fields fs, under the column plan cols: each
// cell goes from the record's bytes straight into its slab, a vector's
// entries in one block copy, with no tuple between.
func (b *MatBuilder) appendRecord(rec []byte, fs []field, cols []ColFrom) error {
	if !b.reserved {
		b.reserve(func(c int) int {
			if cols[c].Kind == FromSource {
				return fs[cols[c].Src].n
			}
			return 0
		})
	}
	if b.n == math.MaxInt32 {
		return &SlabOverflowError{Count: b.n + 1}
	}
	for c, from := range cols {
		col, ty := &b.cols[c], b.schema[c].Type
		src, f := zeroCell[:], field{} // a zero fill reads 0, "" or no entries
		if from.Kind == FromSource || from.Kind == IntToFloat {
			src, f = rec, fs[from.Src]
		}
		switch {
		case from.Kind == RowNumber:
			col.ints = append(col.ints, int64(b.n))
		case from.Kind == IntToFloat:
			col.flts = append(col.flts, float64(int64(binary.LittleEndian.Uint64(src[f.at:]))))
		case ty == TInt64:
			col.ints = append(col.ints, int64(binary.LittleEndian.Uint64(src[f.at:])))
		case ty == TFloat64:
			col.flts = append(col.flts, math.Float64frombits(binary.LittleEndian.Uint64(src[f.at:])))
		case ty == TString:
			col.strs = append(col.strs, string(src[f.at:f.at+f.n]))
		case ty == TDenseVec:
			col.f64s = appendF64s(col.f64s, src[f.at:], f.n)
		case ty == TSparseVec:
			col.i32s = appendI32s(col.i32s, src[f.at:], f.n)
			col.f64s = appendF64s(col.f64s, src[f.at+4*f.n:], f.n)
		case ty == TInt32Vec:
			col.i32s = appendI32s(col.i32s, src[f.at:], f.n)
		}
		if col.offs != nil {
			end := len(col.i32s)
			if ty == TDenseVec {
				end = len(col.f64s)
			}
			if err := col.endRow(end); err != nil {
				return err
			}
		}
	}
	b.n++
	return nil
}

// zeroCell is the bytes a zero fill reads its scalar from.
var zeroCell [8]byte

// appendF64s appends the n little-endian float64s at the start of src to
// s, growing it as append would.
func appendF64s(s []float64, src []byte, n int) []float64 {
	s = slices.Grow(s, n)
	getF64s(s[len(s):len(s)+n], src)
	return s[:len(s)+n]
}

// appendI32s appends the n little-endian int32s at the start of src to s,
// growing it as append would.
func appendI32s(s []int32, src []byte, n int) []int32 {
	s = slices.Grow(s, n)
	getI32s(s[len(s):len(s)+n], src)
	return s[:len(s)+n]
}

// truncate empties the builder for reuse, keeping its slabs.
func (b *MatBuilder) truncate() {
	for c := range b.cols {
		col := &b.cols[c]
		clear(col.strs)
		col.ints, col.flts, col.strs = col.ints[:0], col.flts[:0], col.strs[:0]
		col.f64s, col.i32s, col.offs = col.f64s[:0], col.i32s[:0], trim(col.offs, 1)
	}
	b.n = 0
}

// Build hands the slabs over as a finished cache stamped with the given
// table version. The builder must not be reused afterwards.
func (b *MatBuilder) Build(version uint64) *Materialized {
	return &Materialized{version: version, schema: b.schema, cols: b.cols, n: b.n}
}

// slabTable wraps a cache nothing else refers to yet as a new table whose
// rows live in the cache alone; a page heap is encoded from them only if a
// physical operation ever asks for one (see Table.pages).
func slabTable(name string, m *Materialized) *Table {
	m.version = 0 // a new table's version
	t := &Table{Name: name, Schema: m.schema, heap: NewMemHeap(), mat: m}
	t.slabOnly.Store(true)
	return t
}
