// Package engine is the RDBMS substrate that Bismarck runs on. It provides
// what the paper relies on from PostgreSQL and the two commercial engines:
//
//   - on-disk heap files made of slotted pages, with a buffer pool
//   - a catalog of typed tables and tuple-at-a-time sequential scans
//   - the standard user-defined aggregate (UDA) contract
//     (initialize / transition / merge / terminate) and executors for it:
//     sequential, shared-nothing segmented (pure UDA), and shared-memory
//   - physical reordering operators: ClusterBy and Shuffle
//     (the ORDER BY RANDOM() construct from §3.1)
//   - engine profiles that emulate the per-call overhead characteristics of
//     the three engines in the paper's Tables 2 and 3
//
// The engine is deliberately scan-oriented: Bismarck's whole premise is that
// IGD's data access pattern is that of an SQL aggregation query.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"bismarck/internal/vector"
)

// Type enumerates the column types the engine can store.
type Type uint8

// Column types.
const (
	TInt64 Type = iota + 1
	TFloat64
	TString
	TDenseVec  // vector.Dense
	TSparseVec // vector.Sparse
	TInt32Vec  // []int32, used for label sequences
)

func (t Type) String() string {
	switch t {
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TString:
		return "string"
	case TDenseVec:
		return "densevec"
	case TSparseVec:
		return "sparsevec"
	case TInt32Vec:
		return "int32vec"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is a single typed cell. Exactly the field matching Type is valid.
type Value struct {
	Type   Type
	Int    int64
	Float  float64
	Str    string
	Dense  vector.Dense
	Sparse vector.Sparse
	Ints   []int32
}

// I64 wraps an int64 as a Value.
func I64(v int64) Value { return Value{Type: TInt64, Int: v} }

// F64 wraps a float64 as a Value.
func F64(v float64) Value { return Value{Type: TFloat64, Float: v} }

// Str wraps a string as a Value.
func Str(v string) Value { return Value{Type: TString, Str: v} }

// DenseV wraps a dense vector as a Value.
func DenseV(v vector.Dense) Value { return Value{Type: TDenseVec, Dense: v} }

// SparseV wraps a sparse vector as a Value.
func SparseV(v vector.Sparse) Value { return Value{Type: TSparseVec, Sparse: v} }

// IntsV wraps an []int32 as a Value.
func IntsV(v []int32) Value { return Value{Type: TInt32Vec, Ints: v} }

// Tuple is one row: values positionally matching the table schema.
type Tuple []Value

// Clone returns a deep copy of t: its own header and its own copies of the
// Dense, Sparse and Ints cells. Scans hand out one tuple overwritten row
// after row; a caller that keeps a row past the callback keeps a Clone.
func (t Tuple) Clone() Tuple {
	out := slices.Clone(t)
	for i := range out {
		v := &out[i]
		v.Dense = slices.Clone(v.Dense)
		v.Sparse.Idx = slices.Clone(v.Sparse.Idx)
		v.Sparse.Val = slices.Clone(v.Sparse.Val)
		v.Ints = slices.Clone(v.Ints)
	}
	return out
}

// encodedSize returns the number of bytes Encode will produce for t.
func (t Tuple) encodedSize() int {
	n := 0
	for _, v := range t {
		n++ // type tag
		switch v.Type {
		case TInt64, TFloat64:
			n += 8
		case TString:
			n += 4 + len(v.Str)
		case TDenseVec:
			n += 4 + 8*len(v.Dense)
		case TSparseVec:
			n += 4 + 12*len(v.Sparse.Idx)
		case TInt32Vec:
			n += 4 + 4*len(v.Ints)
		default:
			panic(fmt.Sprintf("engine: encodedSize: bad type %v", v.Type))
		}
	}
	return n
}

// Encode serialises the tuple into a compact binary record.
func (t Tuple) Encode() []byte { return t.AppendEncode(nil) }

// AppendEncode appends the tuple's record, as Encode makes it, to dst and
// returns the extended buffer; dst grows at most once.
func (t Tuple) AppendEncode(dst []byte) []byte {
	buf := slices.Grow(dst, t.encodedSize())
	for _, v := range t {
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TInt64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int))
		case TFloat64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case TString:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str)))
			buf = append(buf, v.Str...)
		case TDenseVec:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Dense)))
			for _, f := range v.Dense {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		case TSparseVec:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Sparse.Idx)))
			for _, ix := range v.Sparse.Idx {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(ix))
			}
			for _, f := range v.Sparse.Val {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		case TInt32Vec:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Ints)))
			for _, ix := range v.Ints {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(ix))
			}
		default:
			panic(fmt.Sprintf("engine: Encode: bad type %v", v.Type))
		}
	}
	return buf
}

// CorruptRecordError reports a heap record that failed to decode or whose
// decoded shape (arity or column types) does not match the table schema.
// Scans return it instead of letting a truncated record surface later as an
// index panic inside task code; callers can errors.As for it to distinguish
// storage corruption from ordinary scan-callback errors.
type CorruptRecordError struct {
	Table string    // table name, when known
	why   badRecord // formatted only by Error
}

// Error implements error.
func (e *CorruptRecordError) Error() string {
	if e.Table == "" {
		return "engine: corrupt record: " + e.why.String()
	}
	return fmt.Sprintf("engine: corrupt record in table %q: %s", e.Table, e.why)
}

// badRecord is why parseRecord rejected a record, as a value: a degraded
// read counts and drops its bad records without allocating, and only a
// strict one wraps the reason in a *CorruptRecordError. The zero value
// rejects nothing.
type badRecord struct {
	kind      badKind
	col       int  // the column at fault; the columns read, for wrongArity
	tag, want Type // the record's type tag and the schema's
	cols      int  // the schema's column count
}

// badKind is what a rejected record got wrong.
type badKind uint8

// The reasons a record is rejected.
const (
	extraColumns badKind = iota + 1
	wrongTag
	unknownTag
	shortPayload
	unsortedSparse
	wrongArity
)

// err returns b as a *CorruptRecordError, or nil for the zero badRecord.
func (b badRecord) err() error {
	if b.kind == 0 {
		return nil
	}
	return &CorruptRecordError{why: b}
}

// String is the reason's text.
func (b badRecord) String() string {
	switch b.kind {
	case extraColumns:
		return fmt.Sprintf("record has more than the schema's %d columns", b.cols)
	case wrongTag:
		return fmt.Sprintf("column %d has type tag %s, schema wants %s", b.col, b.tag, b.want)
	case unknownTag:
		return fmt.Sprintf("unknown type tag %d in column %d", uint8(b.tag), b.col)
	case shortPayload:
		return fmt.Sprintf("short %s in column %d", shortName[b.tag], b.col)
	case unsortedSparse:
		return fmt.Sprintf("sparse vec indices not ascending in column %d", b.col)
	default: // wrongArity
		return fmt.Sprintf("record has %d columns, schema wants %d", b.col, b.cols)
	}
}

// TupleScratch holds the reusable buffers of the zero-allocation decode
// path: one Value slice plus per-column numeric backing arrays that grow to
// the high-water mark and are then reused for every subsequent record. One
// scratch serves one sequential scan; it is not safe for concurrent use.
// String cells still allocate (Go strings are immutable), but no schema on
// the training hot path carries strings.
type TupleScratch struct {
	schema Schema
	fields []field
	tup    Tuple
	f64    [][]float64 // per-column float backing (dense components, sparse values)
	i32    [][]int32   // per-column int backing (sparse indices, int32 vectors)
}

// NewTupleScratch returns a scratch sized for the schema's arity.
func NewTupleScratch(s Schema) *TupleScratch {
	return &TupleScratch{
		schema: s,
		fields: make([]field, len(s)),
		tup:    make(Tuple, len(s)),
		f64:    make([][]float64, len(s)),
		i32:    make([][]int32, len(s)),
	}
}

// growF64 returns the column's float buffer resized to n, reusing capacity.
func (sc *TupleScratch) growF64(col, n int) []float64 {
	if cap(sc.f64[col]) < n {
		sc.f64[col] = make([]float64, n)
	}
	sc.f64[col] = sc.f64[col][:n]
	return sc.f64[col]
}

// growI32 returns the column's int32 buffer resized to n, reusing capacity.
func (sc *TupleScratch) growI32(col, n int) []int32 {
	if cap(sc.i32[col]) < n {
		sc.i32[col] = make([]int32, n)
	}
	sc.i32[col] = sc.i32[col][:n]
	return sc.i32[col]
}

// field locates one column of a parsed record: where its payload starts
// (past the type tag and any length prefix) and, for a length-prefixed
// column, how many entries it holds — bytes of a string, components of a
// vector.
type field struct {
	at, n int
}

// shortName names each column type in the error for a payload cut short.
var shortName = [...]string{TInt64: "int64", TFloat64: "float64", TString: "string",
	TDenseVec: "dense vec", TSparseVec: "sparse vec", TInt32Vec: "int32 vec"}

// entrySize is the payload bytes of one entry of each length-prefixed
// column type: a sparse entry is its int32 index and its float64 value.
var entrySize = [...]int{TString: 1, TDenseVec: 8, TSparseVec: 12, TInt32Vec: 4}

// parseRecord is the record format's one reader. It locates every column
// of rec, a record Encode made, into fs, one field per column of schema,
// and validates the record as it goes: each type tag against the schema,
// each payload's length, the arity, and that sparse indices ascend. It
// returns the first violation, leaving fs meaningless, or the zero
// badRecord; a record it accepts can be read from fs without a further
// check. DecodeTupleInto and the ordered build's slab writer both start
// from it, so a record either parses whole or yields nothing.
func parseRecord(rec []byte, schema Schema, fs []field) badRecord {
	at, col := 0, 0
	for at < len(rec) {
		if col >= len(schema) {
			return badRecord{kind: extraColumns, cols: len(schema)}
		}
		ty := Type(rec[at])
		if want := schema[col].Type; ty != want {
			return badRecord{kind: wrongTag, col: col, tag: ty, want: want}
		}
		if ty < TInt64 || ty > TInt32Vec {
			return badRecord{kind: unknownTag, col: col, tag: ty}
		}
		at++
		size, n := 8, 0 // payload bytes, entries
		if ty > TFloat64 {
			if len(rec)-at < 4 {
				return badRecord{kind: shortPayload, col: col, tag: ty}
			}
			n = int(binary.LittleEndian.Uint32(rec[at:]))
			at += 4
			size = n * entrySize[ty]
		}
		if len(rec)-at < size {
			return badRecord{kind: shortPayload, col: col, tag: ty}
		}
		if ty == TSparseVec {
			// Sparse indices are strictly ascending and non-negative by
			// construction (vector.NewSparse); a violation means the record
			// bytes are corrupt, and must be rejected here — the
			// sorted-index fast paths of the vector kernels trust the last
			// index to bound all of them.
			prev := int32(-1)
			for i := range n {
				ix := int32(binary.LittleEndian.Uint32(rec[at+4*i:]))
				if ix <= prev {
					return badRecord{kind: unsortedSparse, col: col}
				}
				prev = ix
			}
		}
		fs[col] = field{at: at, n: n}
		at += size
		col++
	}
	if col != len(schema) {
		return badRecord{kind: wrongArity, col: col, cols: len(schema)}
	}
	return badRecord{}
}

// scalarCell sets v to the scalar of type ty at f in rec and reports true,
// or, for a vector type, sets v to an empty cell of it and reports false.
func scalarCell(v *Value, ty Type, rec []byte, f field) bool {
	*v = Value{Type: ty}
	switch ty {
	case TInt64:
		v.Int = int64(binary.LittleEndian.Uint64(rec[f.at:]))
	case TFloat64:
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(rec[f.at:]))
	case TString:
		v.Str = string(rec[f.at : f.at+f.n])
	default:
		return false
	}
	return true
}

// nativeLE reports whether the host lays out a float64 and an int32 in
// memory as a record does, so that a vector payload copies as bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// getF64s fills dst from the little-endian float64s at the start of src.
func getF64s(dst []float64, src []byte) {
	if nativeLE && len(dst) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// getI32s fills dst from the little-endian int32s at the start of src.
func getI32s(dst []int32, src []byte) {
	if nativeLE && len(dst) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// DecodeTupleInto parses a record produced by Encode into the scratch's
// reusable buffers, validating arity and column types against the scratch's
// schema (parseRecord). The returned tuple (and every slice-typed cell in it)
// aliases the scratch and is only valid until the next call; a caller that
// keeps a row keeps its Clone. It returns a *CorruptRecordError rather than
// panicking so corrupt pages surface cleanly. Steady state allocates
// nothing.
func DecodeTupleInto(buf []byte, sc *TupleScratch) (Tuple, error) {
	if err := parseRecord(buf, sc.schema, sc.fields).err(); err != nil {
		return nil, err
	}
	for col, f := range sc.fields {
		v, ty := &sc.tup[col], sc.schema[col].Type
		if scalarCell(v, ty, buf, f) {
			continue
		}
		p := buf[f.at:]
		switch ty {
		case TDenseVec:
			v.Dense = sc.growF64(col, f.n)
			getF64s(v.Dense, p)
		case TSparseVec:
			v.Sparse.Idx, v.Sparse.Val = sc.growI32(col, f.n), sc.growF64(col, f.n)
			getI32s(v.Sparse.Idx, p)
			getF64s(v.Sparse.Val, p[4*f.n:])
		case TInt32Vec:
			v.Ints = sc.growI32(col, f.n)
			getI32s(v.Ints, p)
		}
	}
	return sc.tup, nil
}

// Matches reports whether the tuple's value types match the schema.
func (t Tuple) Matches(s Schema) bool {
	if len(t) != len(s) {
		return false
	}
	for i, v := range t {
		if v.Type != s[i].Type {
			return false
		}
	}
	return true
}
