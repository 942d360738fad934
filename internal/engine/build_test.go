package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bismarck/internal/vector"
)

// buildWorkers are the worker counts every ordered-build test runs at. A
// build runs on at most one worker per chunksPerWorker chunks, so the
// tables below span at least 8*chunksPerWorker chunks where they can.
var buildWorkers = []int{1, 2, 3, 8}

// bigRows is how many 54-wide dense rows span 8*chunksPerWorker chunks.
const bigRows = 40000

// withWorkers runs fn with the read-only passes on k workers.
func withWorkers(k int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	fn()
}

// referenceBuild is the build the ordered one must reproduce, written
// independently of its slab writer: one scan in storage order, each record
// decoded whole into a tuple, filtered by Keep, laid out by the column plan
// and appended by MatBuilder.Add.
func referenceBuild(t *testing.T, tbl *Table, p Projection) (*Materialized, DegradedStats, error) {
	t.Helper()
	b := NewMatBuilder(p.Schema, p.Rows, (tbl.pages().NumPages()+1)*PageSize)
	sc, row := NewTupleScratch(tbl.Schema), make(Tuple, len(p.Schema))
	bad := 0
	visit := func(rec []byte) error {
		tp, err := tbl.decode(rec, sc)
		if err != nil {
			if p.Degraded {
				bad++
				return nil
			}
			return err
		}
		if p.Keep != nil {
			if keep, err := p.Keep(tp); err != nil || !keep {
				return err
			}
		}
		if p.Cols == nil {
			return b.Add(tp)
		}
		for c, from := range p.Cols {
			switch from.Kind {
			case FromSource:
				row[c] = tp[from.Src]
			case IntToFloat:
				row[c] = F64(float64(tp[from.Src].Int))
			case RowNumber:
				row[c] = I64(int64(b.n))
			case ZeroFill:
				row[c] = Value{Type: p.Schema[c].Type}
			}
		}
		return b.Add(row)
	}
	var stats DegradedStats
	var err error
	if p.Degraded {
		stats, err = scanDegraded(tbl.pages(), visit)
	} else {
		err = tbl.pages().Scan(visit)
	}
	stats.SkippedRows += bad
	return b.Build(0), stats, err
}

// Add copies one decoded row into the slabs, validating it against the
// schema: the tuple-at-a-time writer the references build with. The tuple
// may alias reusable scratch; nothing of it is retained.
func (b *MatBuilder) Add(tp Tuple) error {
	if len(tp) != len(b.schema) {
		return corrupt("row has %d columns, schema wants %d", len(tp), len(b.schema))
	}
	if !b.reserved {
		b.reserve(func(c int) int {
			switch v := &tp[c]; v.Type {
			case TDenseVec:
				return len(v.Dense)
			case TSparseVec:
				return len(v.Sparse.Idx)
			case TInt32Vec:
				return len(v.Ints)
			}
			return 0
		})
	}
	if b.n == math.MaxInt32 {
		return &SlabOverflowError{Count: b.n + 1}
	}
	for c := range tp {
		v, col := &tp[c], &b.cols[c]
		if v.Type != b.schema[c].Type {
			return corrupt("column %d has type %s, schema wants %s", c, v.Type, b.schema[c].Type)
		}
		switch v.Type {
		case TInt64:
			col.ints = append(col.ints, v.Int)
		case TFloat64:
			col.flts = append(col.flts, v.Float)
		case TString:
			col.strs = append(col.strs, v.Str)
		case TDenseVec:
			col.f64s = append(col.f64s, v.Dense...)
			if err := col.endRow(len(col.f64s)); err != nil {
				return err
			}
		case TSparseVec:
			if len(v.Sparse.Idx) != len(v.Sparse.Val) {
				return corrupt("column %d sparse vec has %d indices, %d values",
					c, len(v.Sparse.Idx), len(v.Sparse.Val))
			}
			col.i32s = append(col.i32s, v.Sparse.Idx...)
			col.f64s = append(col.f64s, v.Sparse.Val...)
			if err := col.endRow(len(col.i32s)); err != nil {
				return err
			}
		case TInt32Vec:
			col.i32s = append(col.i32s, v.Ints...)
			if err := col.endRow(len(col.i32s)); err != nil {
				return err
			}
		default:
			return corrupt("column %d has unsupported type %s", c, v.Type)
		}
	}
	b.n++
	return nil
}

// checkOrderedBuild builds tbl under p at every worker count and requires
// the slabs, offsets, row count and degraded stats of the reference.
func checkOrderedBuild(t *testing.T, tbl *Table, p Projection) *Materialized {
	t.Helper()
	want, wantStats, err := referenceBuild(t, tbl, p)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, k := range buildWorkers {
		withWorkers(k, func() {
			got, stats, err := tbl.build(p)
			if err != nil {
				t.Fatalf("workers=%d: %v", k, err)
			}
			if got.n != want.n || !reflect.DeepEqual(got.cols, want.cols) {
				t.Fatalf("workers=%d: %d rows differ from the reference's %d (or their slabs do)", k, got.n, want.n)
			}
			if stats != wantStats {
				t.Fatalf("workers=%d: stats %+v, reference %+v", k, stats, wantStats)
			}
		})
	}
	return want
}

// denseBuildRow is a dense row whose vector has the given width.
func denseBuildRow(i, width int) Tuple {
	v := make(vector.Dense, width)
	for j := range v {
		v[j] = float64(i) + float64(j)/16
	}
	return Tuple{I64(int64(i)), DenseV(v), F64(float64(i % 2))}
}

// buildFileTable loads rows into a file table of a fresh catalog and
// reopens it, so the build reads verified pages through a small pool.
func buildFileTable(t *testing.T, schema Schema, n int, row func(int) Tuple) (*Catalog, *Table) {
	t.Helper()
	dir := testCatalogDir(t)
	cat := NewFileCatalog(dir, 16)
	tbl, err := cat.Create("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tbl.MustInsert(row(i))
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	return reopenBuildTable(t, dir)
}

func reopenBuildTable(t *testing.T, dir string) (*Catalog, *Table) {
	t.Helper()
	cat, err := OpenFileCatalog(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	tbl, err := cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

// spansWorkers fails the test unless tbl gives every one of 8 workers its
// chunks.
func spansWorkers(t *testing.T, tbl *Table) {
	t.Helper()
	if tbl.NumPages() < 8*chunksPerWorker*buildChunkPages {
		t.Fatalf("%d pages: want chunks for 8 workers", tbl.NumPages())
	}
}

// chainRows is how many chainRow rows span 8*chunksPerWorker chunks.
const chainRows = 4500

// chainRow is mostly small rows with, every seventh row, a vector whose
// record spans an overflow chain of two to five pages.
func chainRow(i int) Tuple {
	if i%7 == 3 {
		return denseBuildRow(i, 2000+i*37%3000)
	}
	return denseBuildRow(i, 4)
}

// TestOrderedBuildMatchesSequential: the ordered build's slabs, offsets and
// row count are byte-identical to one sequential MatBuilder.Add pass, at 1,
// 2, 3 and 8 workers, for every shape a chunk boundary can cut.
func TestOrderedBuildMatchesSequential(t *testing.T) {
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	sparse := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TSparseVec}, {Name: "label", Type: TFloat64}}
	sparseRow := func(i int) Tuple {
		nnz := 1 + i%71
		idx, val := make([]int32, nnz), make([]float64, nnz)
		for j := range idx {
			idx[j], val[j] = int32(j*31+i%29), float64(i)-float64(j)
		}
		return Tuple{I64(int64(i)), SparseV(vector.NewSparse(idx, val)), F64(float64(i % 2))}
	}

	_, big := buildFileTable(t, dense, bigRows, func(i int) Tuple { return denseBuildRow(i, 54) })
	spansWorkers(t, big)
	t.Run("dense", func(t *testing.T) {
		checkOrderedBuild(t, big, Projection{Schema: dense, Rows: big.NumRows()})
	})
	t.Run("sparse", func(t *testing.T) {
		tbl := NewMemTable("sparse", sparse)
		for i := 0; i < bigRows; i++ {
			tbl.MustInsert(sparseRow(i))
		}
		spansWorkers(t, tbl)
		checkOrderedBuild(t, tbl, Projection{Schema: sparse, Rows: tbl.NumRows()})
	})
	t.Run("mixed", func(t *testing.T) {
		tbl := NewMemTable("mixed", slabSchema())
		for i := 0; i < bigRows; i++ {
			row := slabRow(i)
			row[1] = denseBuildRow(i, 48)[1]
			tbl.MustInsert(row)
		}
		spansWorkers(t, tbl)
		checkOrderedBuild(t, tbl, Projection{Schema: tbl.Schema, Rows: tbl.NumRows()})
	})
	t.Run("overflow chains across chunks", func(t *testing.T) {
		_, tbl := buildFileTable(t, dense, chainRows, chainRow)
		if cut := chainCut(t, tbl.heap); cut < 0 {
			t.Fatal("no overflow chain crosses a chunk boundary")
		}
		checkOrderedBuild(t, tbl, Projection{Schema: dense, Rows: tbl.NumRows()})
	})
	t.Run("chain longer than a chunk", func(t *testing.T) {
		// Row 100's record starts partway through chunk 0 and runs past the
		// end of chunk 1, which holds nothing but its continuations.
		const long = 150000
		_, tbl := buildFileTable(t, dense, bigRows, func(i int) Tuple {
			if i == 100 {
				return denseBuildRow(i, long)
			}
			return denseBuildRow(i, 54)
		})
		spansWorkers(t, tbl)
		if pages := chainPages(8 * long); pages <= buildChunkPages {
			t.Fatalf("the chain spans %d pages, want more than a chunk", pages)
		}
		checkOrderedBuild(t, tbl, Projection{Schema: dense, Rows: tbl.NumRows()})
	})
	t.Run("unflushed tail only", func(t *testing.T) {
		tbl := NewMemTable("tail", dense)
		for i := 0; i < 20; i++ {
			tbl.MustInsert(denseBuildRow(i, 3))
		}
		if tbl.NumPages() != 0 {
			t.Fatalf("%d flushed pages, want the rows in the tail alone", tbl.NumPages())
		}
		if m := checkOrderedBuild(t, tbl, Projection{Schema: dense, Rows: tbl.NumRows()}); m.n != 20 {
			t.Fatalf("%d rows, want 20", m.n)
		}
	})
	t.Run("where and row number", func(t *testing.T) {
		out := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "y", Type: TFloat64}}
		m := checkOrderedBuild(t, big, Projection{Schema: out,
			Cols: []ColFrom{{Kind: RowNumber}, {Kind: FromSource, Src: 1}, {Kind: FromSource, Src: 2}},
			Keep: func(src Tuple) (bool, error) { return src[0].Int%3 == 0, nil }})
		if m.n != (bigRows+2)/3 || m.cols[0].ints[m.n-1] != int64(m.n-1) {
			t.Fatalf("%d rows numbered up to %d", m.n, m.cols[0].ints[m.n-1])
		}
	})
	t.Run("first row narrower than the rest", func(t *testing.T) {
		tbl := NewMemTable("narrow", dense)
		for i := 0; i < bigRows; i++ {
			tbl.MustInsert(denseBuildRow(i, 1+min(i, 1)*53))
		}
		m := checkOrderedBuild(t, tbl, Projection{Schema: dense, Rows: tbl.NumRows()})
		// The reservation is rows × the first row's one entry.
		if len(m.cols[1].f64s) <= tbl.NumRows() {
			t.Fatalf("%d entries: the case must outgrow its %d-entry reservation", len(m.cols[1].f64s), tbl.NumRows())
		}
	})
}

// planSchema is the source layout of the column-plan matrix: every column
// type, and two scalars that projections filter on without keeping.
var planSchema = Schema{{Name: "id", Type: TInt64}, {Name: "name", Type: TString},
	{Name: "vec", Type: TDenseVec}, {Name: "sv", Type: TSparseVec}, {Name: "tags", Type: TInt32Vec},
	{Name: "k", Type: TInt64}, {Name: "y", Type: TFloat64}}

// planRows is how many planRow rows span 8*chunksPerWorker chunks.
const planRows = 12000

// planRow is row i of the matrix's source: every 97th row's vector spans
// an overflow chain of two to four pages.
func planRow(i int) Tuple {
	width := 160
	if i%97 == 5 {
		width = 2000 + i%1500
	}
	nnz := 1 + i%7
	idx, val := make([]int32, nnz), make([]float64, nnz)
	for j := range idx {
		idx[j], val[j] = int32(j*13+i%11), float64(i)/float64(j+1)
	}
	tags := make([]int32, i%4)
	for j := range tags {
		tags[j] = int32(i + j)
	}
	return Tuple{I64(int64(i)), Str([]string{"a", "bb", "ccc"}[i%3]), denseBuildRow(i, width)[1],
		SparseV(vector.NewSparse(idx, val)), IntsV(tags), I64(int64(i*7%11) << 33), F64(float64(i % 2))}
}

// TestOrderedBuildPlanMatrix: every shape of column plan, over every column
// type and overflow-chain records, builds the slabs of a reference that
// decodes each row whole and lays it out one at a time, at 1, 2, 3 and 8
// workers: a synthesized row number, an int64 cast to float64, zero fills
// of every type, filters on a numeric and a string column the view does
// not keep, and a degraded build over a quarantined page.
func TestOrderedBuildPlanMatrix(t *testing.T) {
	cat, tbl := buildFileTable(t, planSchema, planRows, planRow)
	spansWorkers(t, tbl)
	if cut := chainCut(t, tbl.heap); cut < 0 {
		t.Fatal("no overflow chain crosses a chunk boundary")
	}
	src := func(c int) ColFrom { return ColFrom{Kind: FromSource, Src: c} }
	zero := ColFrom{Kind: ZeroFill}
	col := func(name string, ty Type) Column { return Column{Name: name, Type: ty} }
	cases := []struct {
		name string
		p    Projection
	}{
		{"as stored", Projection{Schema: planSchema, Rows: planRows}},
		{"row number, cast and zero fills of every type", Projection{Rows: planRows,
			Schema: Schema{col("id", TInt64), col("x", TFloat64), col("vec", TDenseVec), col("i", TInt64),
				col("s", TString), col("d", TDenseVec), col("sv", TSparseVec), col("iv", TInt32Vec), col("f", TFloat64)},
			Cols: []ColFrom{{Kind: RowNumber}, {Kind: IntToFloat, Src: 5}, src(2), zero, zero, zero, zero, zero, zero}}},
		{"where on a numeric and a string column not kept", Projection{
			Schema: Schema{col("name", TString), col("sv", TSparseVec), col("tags", TInt32Vec), col("vec", TDenseVec)},
			Cols:   []ColFrom{src(1), src(3), src(4), src(2)},
			Keep:   func(r Tuple) (bool, error) { return r[5].Int%3 == 0 && r[1].Str != "bb", nil }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if m := checkOrderedBuild(t, tbl, tc.p); m.n == 0 {
				t.Fatal("the projection kept no row")
			}
		})
	}
	t.Run("degraded over a quarantined page", func(t *testing.T) {
		dir := cat.dir
		cat.Close()
		flipBit(t, filepath.Join(dir, "t.heap"), 5*buildChunkPages*PageSize+100)
		_, tbl := reopenBuildTable(t, dir)
		if q := tbl.QuarantinedPages(); len(q) != 1 {
			t.Fatalf("quarantined %v, want one page", q)
		}
		checkOrderedBuild(t, tbl, Projection{Degraded: true,
			Schema: Schema{col("id", TInt64), col("x", TFloat64), col("sv", TSparseVec)},
			Cols:   []ColFrom{{Kind: RowNumber}, {Kind: IntToFloat, Src: 0}, src(3)},
			Keep:   func(r Tuple) (bool, error) { return r[1].Str != "a", nil }})
	})
}

// TestProjectionPlanChecked: a column plan that does not fit the layouts
// fails the build before it reads a page.
func TestProjectionPlanChecked(t *testing.T) {
	tbl := NewMemTable("p", planSchema)
	tbl.MustInsert(planRow(0))
	f := Schema{{Name: "f", Type: TFloat64}}
	for _, p := range []Projection{
		{Schema: f},
		{Schema: f, Cols: []ColFrom{{Kind: FromSource, Src: 0}}},
		{Schema: f, Cols: []ColFrom{{Kind: IntToFloat, Src: 6}}},
		{Schema: f, Cols: []ColFrom{{Kind: FromSource, Src: 7}}},
		{Schema: f, Cols: []ColFrom{{Kind: RowNumber}}},
		{Schema: f, Cols: []ColFrom{{Kind: ZeroFill}, {Kind: ZeroFill}}},
	} {
		if _, _, err := tbl.Project("v", p); err == nil {
			t.Fatalf("plan %+v for %v built", p.Cols, p.Schema)
		}
	}
}

// FuzzOrderedBuild: records made from the fuzzer's schema and seed, some
// with bytes flipped, build — strict and degraded, at 1, 2, 3 and 8
// workers, under a plan that numbers the rows, copies every column and
// casts every int64 one — the slabs of a reference that decodes each
// record with DecodeTupleInto and adds it with MatBuilder.Add, or fail with
// the reference's *CorruptRecordError; never a panic. The table repeats
// the records over enough pages for eight workers.
func FuzzOrderedBuild(f *testing.F) {
	f.Add([]byte{byte(TInt64), byte(TDenseVec), byte(TFloat64)}, int64(1), []byte{})
	f.Add([]byte{byte(TInt64), byte(TString), byte(TSparseVec), byte(TInt32Vec), byte(TFloat64)}, int64(2), []byte{3, 40, 0x80})
	f.Add([]byte{byte(TSparseVec)}, int64(3), []byte{0, 200, 0xFF, 1, 7, 1})
	f.Add([]byte{byte(TDenseVec), byte(TInt64)}, int64(4), []byte{5, 0, 2})
	f.Add([]byte{byte(TInt32Vec), byte(TString)}, int64(5), []byte{9, 128, 0x10})
	f.Fuzz(func(t *testing.T, colTypes []byte, seed int64, flips []byte) {
		if len(colTypes) == 0 || len(colTypes) > 8 {
			return
		}
		schema := make(Schema, len(colTypes))
		out := Schema{{Name: "n", Type: TInt64}}
		cols := []ColFrom{{Kind: RowNumber}}
		for c, ty := range colTypes {
			schema[c] = Column{Name: fmt.Sprint("c", c), Type: Type(ty%6 + 1)}
			out, cols = append(out, schema[c]), append(cols, ColFrom{Kind: FromSource, Src: c})
			if schema[c].Type == TInt64 {
				out, cols = append(out, Column{Name: "f", Type: TFloat64}), append(cols, ColFrom{Kind: IntToFloat, Src: c})
			}
		}
		rng := rand.New(rand.NewSource(seed))
		recs := make([][]byte, 1+rng.Intn(32))
		for i := range recs {
			recs[i] = fuzzRow(rng, schema).Encode()
		}
		for ; len(flips) >= 3; flips = flips[3:] {
			rec := recs[int(flips[0])%len(recs)]
			rec[int(flips[1])*len(rec)/256] ^= flips[2]
		}
		// Pages hold a record or two, so the table spans chunks for eight
		// workers in few rows.
		tbl := NewMemTable("f", schema)
		for i := 0; tbl.NumPages() < 8*chunksPerWorker*buildChunkPages; i++ {
			if err := tbl.heap.Append(recs[i%len(recs)]); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := tbl.heap.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, degraded := range []bool{false, true} {
			p := Projection{Schema: out, Cols: cols, Rows: tbl.NumRows(), Degraded: degraded}
			want, wantStats, wantErr := referenceBuild(t, tbl, p)
			for _, k := range buildWorkers {
				withWorkers(k, func() {
					got, stats, err := tbl.build(p)
					if wantErr != nil {
						var ce *CorruptRecordError
						if !errors.As(err, &ce) || err.Error() != wantErr.Error() {
							t.Fatalf("degraded=%v workers=%d: %v, the reference failed with %v", degraded, k, err, wantErr)
						}
						return
					}
					if err != nil || got.n != want.n || !reflect.DeepEqual(got.cols, want.cols) || stats != wantStats {
						t.Fatalf("degraded=%v workers=%d: %d rows, stats %+v, error %v; the reference's %d, %+v",
							degraded, k, got.n, stats, err, want.n, wantStats)
					}
				})
			}
		}
	})
}

// fuzzRow is a random row of schema: short strings and vectors, and now
// and then a dense vector whose record spans an overflow chain.
func fuzzRow(rng *rand.Rand, schema Schema) Tuple {
	row := make(Tuple, len(schema))
	for c, col := range schema {
		switch col.Type {
		case TInt64:
			row[c] = I64(rng.Int63() - rng.Int63())
		case TFloat64:
			row[c] = F64(rng.NormFloat64())
		case TString:
			row[c] = Str(string([]byte("abcdefghij")[:rng.Intn(10)]))
		case TDenseVec:
			v := make(vector.Dense, rng.Intn(24))
			if rng.Intn(40) == 0 {
				v = make(vector.Dense, 1500+rng.Intn(3000))
			}
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			row[c] = DenseV(v)
		case TSparseVec:
			idx, val := make([]int32, rng.Intn(12)), []float64(nil)
			for j := range idx {
				idx[j] = int32(j*5 + rng.Intn(5))
				val = append(val, rng.NormFloat64())
			}
			row[c] = SparseV(vector.NewSparse(idx, val))
		case TInt32Vec:
			v := make([]int32, rng.Intn(8))
			for j := range v {
				v[j] = rng.Int31()
			}
			row[c] = IntsV(v)
		}
	}
	return row
}

// chainCut returns a chunk-boundary page that continues an overflow chain,
// or -1.
func chainCut(t *testing.T, h *Heap) int {
	t.Helper()
	for i := buildChunkPages; i < h.NumPages(); i += buildChunkPages {
		p, err := h.st.readPage(i)
		if err != nil {
			t.Fatal(err)
		}
		kind := p.data.kind()
		p.unpin()
		if kind == pageOverflowCont {
			return i
		}
	}
	return -1
}

// TestOrderedBuildDegraded: a degraded build skips what a sequential
// degraded scan skips and counts it the same — pages quarantined at open in
// different chunks, and rot found mid-build in an overflow continuation that
// opens the next chunk, where that chunk's own read of the page must not be
// counted a second time.
func TestOrderedBuildDegraded(t *testing.T) {
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	p := Projection{Schema: dense, Degraded: true}

	t.Run("quarantined at open", func(t *testing.T) {
		cat, tbl := buildFileTable(t, dense, bigRows, func(i int) Tuple { return denseBuildRow(i, 54) })
		dir := cat.dir
		cat.Close()
		for _, pg := range []int64{10, 3*buildChunkPages + 5} {
			flipBit(t, filepath.Join(dir, "t.heap"), pg*PageSize+100)
		}
		_, tbl = reopenBuildTable(t, dir)
		if q := tbl.QuarantinedPages(); len(q) != 2 {
			t.Fatalf("quarantined %v, want two pages", q)
		}
		p.Rows = tbl.NumRows()
		checkOrderedBuild(t, tbl, p)
	})

	t.Run("rot found in a chain across chunks", func(t *testing.T) {
		cat, tbl := buildFileTable(t, dense, chainRows, chainRow)
		cut := chainCut(t, tbl.heap)
		if cut < 0 {
			t.Fatal("no overflow chain crosses a chunk boundary")
		}
		dir := cat.dir
		cat.Close()
		for _, k := range buildWorkers {
			// Each run opens the file afresh, so the rot is news to it.
			cat, tbl := reopenBuildTable(t, dir)
			cat.IO.Read = func(_ string, page int) IOFault {
				if page == cut {
					return IOBitRot
				}
				return IONone
			}
			want, wantStats, err := referenceBuild(t, tbl, p)
			if err != nil {
				t.Fatal(err)
			}
			cat.Close()
			if wantStats.SkippedPages < 2 {
				t.Fatalf("reference skipped %+v: want the whole chain", wantStats)
			}
			cat, tbl = reopenBuildTable(t, dir)
			cat.IO.Read = func(_ string, page int) IOFault {
				if page == cut {
					return IOBitRot
				}
				return IONone
			}
			withWorkers(k, func() {
				got, stats, err := tbl.build(p)
				if err != nil {
					t.Fatalf("workers=%d: %v", k, err)
				}
				if stats != wantStats || got.n != want.n || !reflect.DeepEqual(got.cols, want.cols) {
					t.Fatalf("workers=%d: %d rows, stats %+v; reference %d rows, %+v", k, got.n, stats, want.n, wantStats)
				}
			})
		}
	})
}

// TestOrderedBuildStrictLowestPage: a strict build over two rotted pages in
// different chunks fails on the lower one, as a sequential scan does,
// whichever chunk a worker reaches first.
func TestOrderedBuildStrictLowestPage(t *testing.T) {
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	cat, _ := buildFileTable(t, dense, bigRows, func(i int) Tuple { return denseBuildRow(i, 54) })
	dir := cat.dir
	cat.Close()
	low, high := 2*buildChunkPages+7, 4*buildChunkPages+1
	for _, pg := range []int{high, low} {
		flipBit(t, filepath.Join(dir, "t.heap"), int64(pg)*PageSize+100)
	}
	_, tbl := reopenBuildTable(t, dir)
	for _, k := range buildWorkers {
		withWorkers(k, func() {
			for i := 0; i < 5; i++ {
				_, err := tbl.Materialize()
				var ce *CorruptPageError
				if !errors.As(err, &ce) || ce.Page != low || ce.Table != "t" {
					t.Fatalf("workers=%d: %v, want a CorruptPageError on page %d of t", k, err, low)
				}
			}
		})
	}
}

// TestOrderedOpenWalk: catalog open reads every page once on the workers
// and derives the same record counts, per-page counts and quarantine at any
// worker count — a rotted data page, a rotted chain start and a rotted
// chain continuation included — with one checksum per page.
func TestOrderedOpenWalk(t *testing.T) {
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	cat, tbl := buildFileTable(t, dense, chainRows, chainRow)
	dir, np := cat.dir, tbl.NumPages()
	var start, cont int
	for i := 0; i < np && (start == 0 || cont == 0); i++ {
		p, err := tbl.heap.st.readPage(i)
		if err != nil {
			t.Fatal(err)
		}
		switch p.data.kind() {
		case pageOverflowStart:
			if i > 200 && start == 0 {
				start = i
			}
		case pageOverflowCont:
			if i > 400 && cont == 0 {
				cont = i
			}
		}
		p.unpin()
	}
	cat.Close()
	for _, pg := range []int{5, start, cont} {
		flipBit(t, filepath.Join(dir, "t.heap"), int64(pg)*PageSize+100)
	}
	type walk struct {
		nrec     int
		pageRecs []int
		quar     map[int]string
		crcs     int64
	}
	var first *walk
	for _, k := range buildWorkers {
		withWorkers(k, func() {
			crc0 := CRCVerifyCount()
			_, tbl := reopenBuildTable(t, dir)
			w := &walk{tbl.heap.nrec, tbl.heap.pageRecs, tbl.QuarantinedPages(), CRCVerifyCount() - crc0}
			if w.crcs != int64(np) || len(w.quar) < 3 {
				t.Fatalf("workers=%d: %d checksums over %d pages, quarantined %v", k, w.crcs, np, w.quar)
			}
			if first == nil {
				first = w
			} else if !reflect.DeepEqual(w, first) {
				t.Fatalf("workers=%d: open walk %+v differs from workers=1's %+v", k, w, first)
			}
		})
	}
}

// TestOrderedBuildPanicFailsTheBuild: a panicking Keep fails the build with
// an error, at any worker count, and leaves no worker behind.
func TestOrderedBuildPanicFailsTheBuild(t *testing.T) {
	tbl := NewMemTable("p", slabSchema())
	for i := 0; i < bigRows; i++ {
		row := slabRow(i)
		row[1] = denseBuildRow(i, 48)[1]
		tbl.MustInsert(row)
	}
	spansWorkers(t, tbl)
	for _, k := range buildWorkers {
		withWorkers(k, func() {
			_, _, err := tbl.build(Projection{Schema: tbl.Schema, Keep: func(src Tuple) (bool, error) {
				if src[0].Int == 12345 {
					panic(fmt.Sprintf("row %d", src[0].Int))
				}
				return true, nil
			}})
			if err == nil {
				t.Fatalf("workers=%d: a panicking Keep must fail the build", k)
			}
		})
	}
}

// BenchmarkDegradedBuildCorruptRecords: a degraded build over a heap where
// every other record is cut short, so it counts and drops half its rows. A
// dropped record's error is never printed, so what it may cost is its parse.
func BenchmarkDegradedBuildCorruptRecords(b *testing.B) {
	const rows = 20000
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	tbl := NewMemTable("t", dense)
	for i := range rows {
		rec := denseBuildRow(i, 54).Encode()
		if i%2 == 1 {
			rec = rec[:len(rec)-4] // a short label
		}
		if err := tbl.heap.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		b.Fatal(err)
	}
	p := Projection{Schema: dense, Rows: rows, Degraded: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, stats, err := tbl.build(p)
		if err != nil || m.NumRows() != rows/2 || stats.SkippedRows != rows/2 {
			b.Fatalf("%d rows, %+v, %v", m.NumRows(), stats, err)
		}
	}
}
