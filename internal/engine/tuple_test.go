package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bismarck/internal/vector"
)

func sampleTuple() Tuple {
	return Tuple{
		I64(42),
		F64(-1.5),
		Str("hello, bismarck"),
		DenseV(vector.Dense{1, 2, 3.5}),
		SparseV(vector.NewSparse([]int32{2, 7}, []float64{0.5, -0.25})),
		IntsV([]int32{9, 8, 7}),
	}
}

func tuplesEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		va, vb := a[i], b[i]
		if va.Type != vb.Type {
			return false
		}
		switch va.Type {
		case TInt64:
			if va.Int != vb.Int {
				return false
			}
		case TFloat64:
			if va.Float != vb.Float && !(math.IsNaN(va.Float) && math.IsNaN(vb.Float)) {
				return false
			}
		case TString:
			if va.Str != vb.Str {
				return false
			}
		case TDenseVec:
			if len(va.Dense) != len(vb.Dense) {
				return false
			}
			for k := range va.Dense {
				if va.Dense[k] != vb.Dense[k] {
					return false
				}
			}
		case TSparseVec:
			if len(va.Sparse.Idx) != len(vb.Sparse.Idx) {
				return false
			}
			for k := range va.Sparse.Idx {
				if va.Sparse.Idx[k] != vb.Sparse.Idx[k] || va.Sparse.Val[k] != vb.Sparse.Val[k] {
					return false
				}
			}
		case TInt32Vec:
			if len(va.Ints) != len(vb.Ints) {
				return false
			}
			for k := range va.Ints {
				if va.Ints[k] != vb.Ints[k] {
					return false
				}
			}
		}
	}
	return true
}

// decodeAs decodes rec under a schema built from want's cell types.
func decodeAs(want Tuple, rec []byte) (Tuple, error) {
	s := make(Schema, len(want))
	for i, v := range want {
		s[i].Type = v.Type
	}
	return DecodeTupleInto(rec, NewTupleScratch(s))
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	tp := sampleTuple()
	got, err := decodeAs(tp, tp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(tp, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", tp, got)
	}
}

func TestTupleEncodeSizeExact(t *testing.T) {
	tp := sampleTuple()
	if got, want := len(tp.Encode()), tp.encodedSize(); got != want {
		t.Fatalf("encoded %d bytes, predicted %d", got, want)
	}
}

// TestDecodeTruncatedFails: every proper prefix is rejected with the typed
// error — a cut at a column boundary too, where a schema-less decoder would
// have returned a shorter tuple.
func TestDecodeTruncatedFails(t *testing.T) {
	tp := sampleTuple()
	enc := tp.Encode()
	for cut := 0; cut < len(enc); cut++ {
		var ce *CorruptRecordError
		if got, err := decodeAs(tp, enc[:cut]); !errors.As(err, &ce) || got != nil {
			t.Fatalf("cut=%d: decoded %v, %v; want a *CorruptRecordError", cut, got, err)
		}
	}
}

func TestDecodeUnknownTagFails(t *testing.T) {
	for _, want := range []Tuple{{I64(0)}, {{Type: 0xFF}}} {
		var ce *CorruptRecordError
		if _, err := decodeAs(want, []byte{0xFF, 1, 2, 3}); !errors.As(err, &ce) {
			t.Fatalf("unknown type tag under %v: %v, want a *CorruptRecordError", want, err)
		}
	}
}

// FuzzDecodeTupleInto: for any schema and any bytes the decoder returns
// either a tuple that re-encodes to exactly the input or a
// *CorruptRecordError — never a panic, and never a buffer longer than the
// input could fill (a hostile length prefix must be refused before it is
// allocated).
func FuzzDecodeTupleInto(f *testing.F) {
	types := func(tp Tuple) []byte {
		out := make([]byte, len(tp))
		for i, v := range tp {
			out[i] = byte(v.Type)
		}
		return out
	}
	sample := sampleTuple()
	enc := sample.Encode()
	f.Add(types(sample), enc)
	f.Add(types(sample), enc[:len(enc)/2])
	f.Add(types(sample), enc[:9]) // cut at the first column boundary
	f.Add(types(sample[:1]), enc)
	f.Add([]byte{byte(TInt64)}, []byte{0xFF, 1, 2, 3})
	f.Add([]byte{byte(TDenseVec)}, []byte{byte(TDenseVec), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(TSparseVec)}, Tuple{SparseV(vector.Sparse{Idx: []int32{7, 2}, Val: []float64{1, 2}})}.Encode())
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, colTypes, rec []byte) {
		if len(colTypes) > 16 {
			colTypes = colTypes[:16]
		}
		schema := make(Schema, len(colTypes))
		for i, ty := range colTypes {
			schema[i].Type = Type(ty)
		}
		sc := NewTupleScratch(schema)
		tp, err := DecodeTupleInto(rec, sc)
		for c := range schema {
			if 8*cap(sc.f64[c]) > len(rec) || 4*cap(sc.i32[c]) > len(rec) {
				t.Fatalf("column %d buffers (%d floats, %d ints) outgrew a %d-byte record",
					c, cap(sc.f64[c]), cap(sc.i32[c]), len(rec))
			}
		}
		if err != nil {
			var ce *CorruptRecordError
			if !errors.As(err, &ce) || tp != nil {
				t.Fatalf("decode failed with %v (tuple %v), want a bare *CorruptRecordError", err, tp)
			}
			return
		}
		if !tp.Matches(schema) || !bytes.Equal(tp.Encode(), rec) {
			t.Fatalf("accepted %x under %v but it re-encodes to %x", rec, schema, tp.Encode())
		}
	})
}

func TestTupleMatches(t *testing.T) {
	s := Schema{{"id", TInt64}, {"vec", TDenseVec}, {"label", TFloat64}}
	good := Tuple{I64(1), DenseV(vector.Dense{1}), F64(1)}
	bad := Tuple{I64(1), F64(1), F64(1)}
	short := Tuple{I64(1)}
	if !good.Matches(s) {
		t.Error("good tuple should match")
	}
	if bad.Matches(s) {
		t.Error("bad tuple should not match")
	}
	if short.Matches(s) {
		t.Error("short tuple should not match")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := Schema{{"id", TInt64}, {"vec", TDenseVec}}
	if s.ColIndex("vec") != 1 {
		t.Error("ColIndex(vec) != 1")
	}
	if s.ColIndex("nope") != -1 {
		t.Error("ColIndex(nope) != -1")
	}
}

func TestTypeString(t *testing.T) {
	for _, ty := range []Type{TInt64, TFloat64, TString, TDenseVec, TSparseVec, TInt32Vec} {
		if ty.String() == "" {
			t.Errorf("empty string for %d", ty)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Errorf("unknown type string = %s", Type(99).String())
	}
}

// Property: encode/decode round trip over random int/float/sparse tuples.
func TestQuickTupleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8, iv int64, fv float64, s string) bool {
		nnz := int(n % 32)
		idx := make([]int32, nnz)
		val := make([]float64, nnz)
		for k := range idx {
			idx[k] = int32(rng.Intn(1000))
			val[k] = rng.NormFloat64()
		}
		dn := make(vector.Dense, int(n%8))
		for k := range dn {
			dn[k] = rng.NormFloat64()
		}
		tp := Tuple{I64(iv), F64(fv), Str(s), SparseV(vector.NewSparse(idx, val)), DenseV(dn)}
		got, err := decodeAs(tp, tp.Encode())
		if err != nil {
			return false
		}
		return tuplesEqual(tp, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
