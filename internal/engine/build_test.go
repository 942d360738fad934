package engine

import (
	"errors"
	"fmt"
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

// referenceBuild is the sequential build the ordered one must reproduce:
// one scan in storage order, every kept row appended by MatBuilder.Add.
func referenceBuild(t *testing.T, tbl *Table, p Projection) (*Materialized, DegradedStats, error) {
	t.Helper()
	b := NewMatBuilder(p.Schema, p.Rows, (tbl.pages().NumPages()+1)*PageSize)
	sc, dst := NewTupleScratch(tbl.Schema), make(Tuple, len(p.Schema))
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
		if p.Map != nil {
			if keep, err := p.Map(tp, dst); err != nil || !keep {
				return err
			}
			tp = dst
		}
		if p.RowNumber {
			tp[0] = I64(int64(b.n))
		}
		return b.Add(tp)
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
		m := checkOrderedBuild(t, big, Projection{Schema: out, RowNumber: true,
			Map: func(src, dst Tuple) (bool, error) {
				if src[0].Int%3 != 0 {
					return false, nil
				}
				dst[0], dst[1], dst[2] = I64(0), src[1], F64(2*src[2].Float)
				return true, nil
			}})
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

// TestOrderedBuildPanicFailsTheBuild: a panicking Map fails the build with
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
			_, _, err := tbl.build(Projection{Schema: tbl.Schema, Map: func(src, dst Tuple) (bool, error) {
				if src[0].Int == 12345 {
					panic(fmt.Sprintf("row %d", src[0].Int))
				}
				copy(dst, src)
				return true, nil
			}})
			if err == nil {
				t.Fatalf("workers=%d: a panicking Map must fail the build", k)
			}
		})
	}
}
