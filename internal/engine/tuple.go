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

func readLen(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("engine: decode: short length prefix")
	}
	return int(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

// CorruptRecordError reports a heap record that failed to decode or whose
// decoded shape (arity or column types) does not match the table schema.
// Scans return it instead of letting a truncated record surface later as an
// index panic inside task code; callers can errors.As for it to distinguish
// storage corruption from ordinary scan-callback errors.
type CorruptRecordError struct {
	Table  string // table name, when known
	Reason string
}

// Error implements error.
func (e *CorruptRecordError) Error() string {
	if e.Table == "" {
		return "engine: corrupt record: " + e.Reason
	}
	return fmt.Sprintf("engine: corrupt record in table %q: %s", e.Table, e.Reason)
}

// corrupt builds a CorruptRecordError with a formatted reason.
func corrupt(table, format string, args ...any) *CorruptRecordError {
	return &CorruptRecordError{Table: table, Reason: fmt.Sprintf(format, args...)}
}

// TupleScratch holds the reusable buffers of the zero-allocation decode
// path: one Value slice plus per-column numeric backing arrays that grow to
// the high-water mark and are then reused for every subsequent record. One
// scratch serves one sequential scan; it is not safe for concurrent use.
// String cells still allocate (Go strings are immutable), but no schema on
// the training hot path carries strings.
type TupleScratch struct {
	schema Schema
	tup    Tuple
	f64    [][]float64 // per-column float backing (dense components, sparse values)
	i32    [][]int32   // per-column int backing (sparse indices, int32 vectors)
}

// NewTupleScratch returns a scratch sized for the schema's arity.
func NewTupleScratch(s Schema) *TupleScratch {
	return &TupleScratch{
		schema: s,
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

// DecodeTupleInto parses a record produced by Encode into the scratch's
// reusable buffers, validating arity and column types against the scratch's
// schema as it goes. The returned tuple (and every slice-typed cell in it)
// aliases the scratch and is only valid until the next call; callers that
// retain a row decode it through a scratch of its own. It returns a
// *CorruptRecordError rather than panicking so corrupt pages surface
// cleanly. Steady state allocates nothing.
func DecodeTupleInto(buf []byte, sc *TupleScratch) (Tuple, error) {
	col := 0
	for len(buf) > 0 {
		if col >= len(sc.schema) {
			return nil, corrupt("", "record has more than the schema's %d columns", len(sc.schema))
		}
		ty := Type(buf[0])
		if want := sc.schema[col].Type; ty != want {
			return nil, corrupt("", "column %d has type tag %s, schema wants %s", col, ty, want)
		}
		buf = buf[1:]
		v := &sc.tup[col]
		*v = Value{Type: ty}
		switch ty {
		case TInt64:
			if len(buf) < 8 {
				return nil, corrupt("", "short int64 in column %d", col)
			}
			v.Int = int64(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		case TFloat64:
			if len(buf) < 8 {
				return nil, corrupt("", "short float64 in column %d", col)
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		case TString:
			n, rest, err := readLen(buf)
			if err != nil || len(rest) < n {
				return nil, corrupt("", "short string in column %d", col)
			}
			v.Str = string(rest[:n])
			buf = rest[n:]
		case TDenseVec:
			n, rest, err := readLen(buf)
			if err != nil || len(rest) < 8*n {
				return nil, corrupt("", "short dense vec in column %d", col)
			}
			dst := sc.growF64(col, n)
			for i := 0; i < n; i++ {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
			}
			v.Dense = dst
			buf = rest[8*n:]
		case TSparseVec:
			n, rest, err := readLen(buf)
			if err != nil || len(rest) < 12*n {
				return nil, corrupt("", "short sparse vec in column %d", col)
			}
			idx := sc.growI32(col, n)
			val := sc.growF64(col, n)
			prev := int32(-1)
			for i := 0; i < n; i++ {
				ix := int32(binary.LittleEndian.Uint32(rest[4*i:]))
				// Sparse indices are strictly ascending and non-negative by
				// construction (vector.NewSparse); a violation means the
				// record bytes are corrupt, and must be rejected here — the
				// sorted-index fast paths of the vector kernels trust the
				// last index to bound all of them.
				if ix <= prev {
					return nil, corrupt("", "sparse vec indices not ascending in column %d", col)
				}
				prev = ix
				idx[i] = ix
			}
			rest = rest[4*n:]
			for i := 0; i < n; i++ {
				val[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
			}
			v.Sparse.Idx, v.Sparse.Val = idx, val
			buf = rest[8*n:]
		case TInt32Vec:
			n, rest, err := readLen(buf)
			if err != nil || len(rest) < 4*n {
				return nil, corrupt("", "short int32 vec in column %d", col)
			}
			dst := sc.growI32(col, n)
			for i := 0; i < n; i++ {
				dst[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
			}
			v.Ints = dst
			buf = rest[4*n:]
		default:
			return nil, corrupt("", "unknown type tag %d in column %d", uint8(ty), col)
		}
		col++
	}
	if col != len(sc.schema) {
		return nil, corrupt("", "record has %d columns, schema wants %d", col, len(sc.schema))
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
