package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// extentSchema is the layout of the extent tests: an id, a dense vector and
// a label.
var extentSchema = Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}

// chainAt returns rows of four-wide vectors but for row big, whose record
// spans an overflow chain of three pages.
func chainAt(big int) func(int) Tuple {
	return func(i int) Tuple {
		if i == big {
			return denseBuildRow(i, 2500)
		}
		return denseBuildRow(i, 4)
	}
}

// openCopyTable opens an empty file table named name in dir under hooks.
func openCopyTable(t *testing.T, dir, name string, hooks *IOHooks) *Table {
	t.Helper()
	tbl, _, err := newFileTable(dir, name, extentSchema, 16, hooks, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.heap.Abandon() })
	return tbl
}

// recordCopy appends src's records to dst one by one: CopyTo's loop for a
// destination that is not an empty file table.
func recordCopy(src, dst *Table) error {
	return src.pages().Scan(dst.pages().Append)
}

// sameCopy requires two file tables to hold what the same copy leaves:
// record and page counts, per-page counts, the tail page and, once both are
// flushed, the same file bytes.
func sameCopy(t *testing.T, got, want *Table) {
	t.Helper()
	g, w := got.heap, want.heap
	if g.NumRecords() != w.NumRecords() || g.NumPages() != w.NumPages() || !reflect.DeepEqual(g.pageRecs, w.pageRecs) {
		t.Fatalf("%d records on %d pages (per page %v), record copy %d on %d (%v)",
			g.NumRecords(), g.NumPages(), g.pageRecs, w.NumRecords(), w.NumPages(), w.pageRecs)
	}
	tailOf := func(h *Heap) []byte {
		if h.cur == nil || h.cur.slotCount() == 0 {
			return nil
		}
		return h.cur[:payloadEnd]
	}
	if !bytes.Equal(tailOf(g), tailOf(w)) {
		t.Fatal("tail page differs from the record copy's")
	}
	for _, tbl := range []*Table{got, want} {
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	gb, err := os.ReadFile(g.filePath())
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(w.filePath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("heap file of %d bytes differs from the record copy's %d", len(gb), len(wb))
	}
}

// TestCopyToPagesMatchRecordCopy: from a source whose flushed pages were
// full when flushed, CopyTo into an empty file table writes the file a
// record-by-record copy writes — overflow chains, an unflushed source tail
// or none, memory and file sources — and appends record by record into a
// table that already holds rows.
func TestCopyToPagesMatchRecordCopy(t *testing.T) {
	memSource := func(n int, row func(int) Tuple, flush bool) func(t *testing.T) *Table {
		return func(t *testing.T) *Table {
			src := NewMemTable("src", extentSchema)
			for i := 0; i < n; i++ {
				src.MustInsert(row(i))
			}
			if flush {
				if err := src.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			return src
		}
	}
	fileSource := func(n int, row func(int) Tuple, reopen bool) func(t *testing.T) *Table {
		return func(t *testing.T) *Table {
			dir := t.TempDir()
			src := openCopyTable(t, dir, "src", nil)
			for i := 0; i < n; i++ {
				src.MustInsert(row(i))
			}
			if !reopen {
				return src
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			return openCopyTable(t, dir, "src", nil)
		}
	}
	for _, tc := range []struct {
		name string
		src  func(t *testing.T) *Table
	}{
		{"memory source with a chain and a tail", memSource(3000, chainAt(1000), false)},
		{"memory source, flushed", memSource(3000, chainAt(1000), true)},
		{"memory source ending in a chain", memSource(1001, chainAt(1000), true)},
		{"memory source, tail only", memSource(20, chainAt(-1), false)},
		{"empty source", memSource(0, chainAt(-1), false)},
		{"file source with a tail", fileSource(3000, chainAt(1000), false)},
		{"file source, reopened", fileSource(3000, chainAt(1000), true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(t)
			if src.heap.QuarantinedPages() != nil {
				t.Fatal("source has quarantined pages")
			}
			dir := t.TempDir()
			got, want := openCopyTable(t, dir, "got", nil), openCopyTable(t, dir, "want", nil)
			if !got.heap.emptyFile() {
				t.Fatal("the destination must be an empty file table")
			}
			if err := src.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			if err := recordCopy(src, want); err != nil {
				t.Fatal(err)
			}
			sameCopy(t, got, want)
		})
	}
	t.Run("destination holding a row", func(t *testing.T) {
		src := memSource(3000, chainAt(1000), false)(t)
		dir := t.TempDir()
		got, want := openCopyTable(t, dir, "got", nil), openCopyTable(t, dir, "want", nil)
		for _, tbl := range []*Table{got, want} {
			tbl.MustInsert(denseBuildRow(-1, 7))
		}
		if err := src.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		if err := recordCopy(src, want); err != nil {
			t.Fatal(err)
		}
		sameCopy(t, got, want)
	})
}

// TestCopyToWriteFault: a write fault on the third page of a run — a data
// page, or the continuation of an overflow chain; in the first run, or in
// the second, after the first has landed — ends the run's write there and
// leaves the file length, error, record count and per-page counts a
// record-by-record copy leaves.
func TestCopyToWriteFault(t *testing.T) {
	sources := []struct {
		name string
		n    int
		row  func(int) Tuple
		page int
	}{
		{"data page", 3000, chainAt(-1), 2},
		{"data page of the second run", 12000, chainAt(-1), buildChunkPages + 2},
		// 10 rows share page 0, row 10's chain takes pages 1 to 3.
		{"chain continuation", 3000, chainAt(10), 2},
	}
	for _, sc := range sources {
		src := NewMemTable("src", extentSchema)
		for i := 0; i < sc.n; i++ {
			src.MustInsert(sc.row(i))
		}
		if src.heap.NumPages() <= sc.page {
			t.Fatalf("%s: %d pages, want more than %d", sc.name, src.heap.NumPages(), sc.page)
		}
		for _, fault := range []IOFault{IOWriteError, IOShortWrite, IOTornWrite} {
			t.Run(sc.name+"/"+fault.String(), func(t *testing.T) {
				hooks := &IOHooks{Write: func(_ string, pageID int) IOFault {
					if pageID == sc.page {
						return fault
					}
					return IONone
				}}
				type outcome struct {
					err      string
					size     int64
					nrec     int
					pageRecs string
				}
				run := func(copyFn func(src, dst *Table) error) outcome {
					dir := t.TempDir()
					dst := openCopyTable(t, dir, "dst", hooks)
					err := copyFn(src, dst)
					if err == nil {
						t.Fatal("the write fault was not reported")
					}
					st, serr := os.Stat(filepath.Join(dir, "dst.heap"))
					if serr != nil {
						t.Fatal(serr)
					}
					return outcome{strings.ReplaceAll(err.Error(), dir, ""), st.Size(), dst.NumRows(), fmt.Sprint(dst.heap.pageRecs)}
				}
				got, want := run((*Table).CopyTo), run(recordCopy)
				if got != want {
					t.Fatalf("CopyTo left %+v, a record copy %+v", got, want)
				}
			})
		}
	}
}

// TestCopyToKeepsSourceLayout: from a file source synced partway through
// filling its pages, CopyTo keeps the source's pages as they are, half-full
// ones included: the same records in order, per-page counts and record
// count, where a record-by-record copy would repack them.
func TestCopyToKeepsSourceLayout(t *testing.T) {
	for _, tail := range []bool{true, false} {
		t.Run(fmt.Sprintf("tail=%v", tail), func(t *testing.T) {
			dir := t.TempDir()
			src := openCopyTable(t, dir, "src", nil)
			row := chainAt(700)
			for i := 0; i < 1500; i++ {
				src.MustInsert(row(i))
				if i%250 == 100 || (!tail && i == 1499) {
					if err := src.heap.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			dst := openCopyTable(t, dir, "dst", nil)
			if err := src.CopyTo(dst); err != nil {
				t.Fatal(err)
			}
			wantRecs := src.heap.pageRecs
			if !tail {
				wantRecs = wantRecs[:len(wantRecs)-1] // the last page is the tail page
			}
			if !reflect.DeepEqual(dst.heap.pageRecs, wantRecs) || dst.NumRows() != src.NumRows() {
				t.Fatalf("%d records, per page %v; source %d, %v", dst.NumRows(), dst.heap.pageRecs, src.NumRows(), src.heap.pageRecs)
			}
			records := func(tbl *Table) [][]byte {
				var out [][]byte
				if err := tbl.pages().Scan(func(rec []byte) error {
					out = append(out, bytes.Clone(rec))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			if got, want := records(dst), records(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d records differ from the source's %d", len(got), len(want))
			}
			repacked := openCopyTable(t, dir, "repacked", nil)
			if err := recordCopy(src, repacked); err != nil {
				t.Fatal(err)
			}
			if repacked.NumPages() >= dst.NumPages() {
				t.Fatalf("a record copy takes %d pages, CopyTo %d: the source has no half-full page", repacked.NumPages(), dst.NumPages())
			}
		})
	}
}

// extentCases are pages of the extent that holds chunk 1: its first, a
// middle and its last page.
var extentCases = []struct {
	name string
	page int
}{
	{"first", buildChunkPages},
	{"middle", buildChunkPages + buildChunkPages/2},
	{"last", 2*buildChunkPages - 1},
}

// extentTable saves a data-only table of at least 8 chunks and returns its
// catalog directory and page count.
func extentTable(t *testing.T) (string, int) {
	t.Helper()
	cat, tbl := buildFileTable(t, extentSchema, 9000, func(i int) Tuple { return denseBuildRow(i, 54) })
	np := tbl.NumPages()
	if np < 8*buildChunkPages {
		t.Fatalf("%d pages: want at least 8 chunks", np)
	}
	cat.Close()
	return cat.dir, np
}

// faultOn is a Read hook that injects fault on page pg of every heap.
func faultOn(fault IOFault, pg int) func(string, int) IOFault {
	return func(_ string, page int) IOFault {
		if page == pg {
			return fault
		}
		return IONone
	}
}

// quarantineSet is the quarantined page ids, sorted.
func quarantineSet(tbl *Table) []int {
	var ids []int
	for i := 0; i < tbl.NumPages(); i++ {
		if _, bad := tbl.heap.badPage(i); bad {
			ids = append(ids, i)
		}
	}
	return ids
}

// errPage is where an injected fault surfaces in a scan's error: the page
// of a *CorruptPageError, or the page an injected read error names.
func errPage(err error) string {
	var ce *CorruptPageError
	if errors.As(err, &ce) {
		return fmt.Sprintf("corrupt page %d", ce.Page)
	}
	if err != nil {
		if i := strings.Index(err.Error(), "injected read error"); i >= 0 {
			return err.Error()[i:]
		}
		return err.Error()
	}
	return ""
}

// TestExtentFaultMatrix: bit rot and read errors on the first, a middle and
// the last page of an extent give the open walk and the ordered build —
// strict and degraded, at every worker count — the quarantine set, error
// page and skipped counts the buffer pool's path gives: the pool's walk
// quarantines what fails at open, and a pool scan is the reference for
// rot after open.
func TestExtentFaultMatrix(t *testing.T) {
	dir, _ := extentTable(t)
	_, clean := reopenBuildTable(t, dir)
	nrec, pageRecs := clean.NumRows(), clean.heap.pageRecs
	for _, fault := range []IOFault{IOBitRot, IOReadError} {
		for _, ec := range extentCases {
			t.Run(fault.String()+"/"+ec.name+"/open", func(t *testing.T) {
				for _, k := range buildWorkers {
					withWorkers(k, func() {
						cat, err := OpenFileCatalogIO(dir, 16, IOHooks{Read: faultOn(fault, ec.page)})
						if err != nil {
							t.Fatal(err)
						}
						defer cat.Close()
						tbl, err := cat.Get("t")
						if err != nil {
							t.Fatal(err)
						}
						if q := quarantineSet(tbl); !reflect.DeepEqual(q, []int{ec.page}) {
							t.Fatalf("workers=%d: quarantined %v, want [%d]", k, q, ec.page)
						}
						if tbl.NumRows() != nrec-pageRecs[ec.page] || tbl.heap.recsOn(ec.page) != -1 {
							t.Fatalf("workers=%d: %d rows, want %d", k, tbl.NumRows(), nrec-pageRecs[ec.page])
						}
					})
				}
			})
			for _, degraded := range []bool{false, true} {
				mode := "strict"
				if degraded {
					mode = "degraded"
				}
				t.Run(fault.String()+"/"+ec.name+"/"+mode, func(t *testing.T) {
					p := Projection{Schema: extentSchema, Rows: nrec, Degraded: degraded}
					rotted := func() *Table {
						cat, tbl := reopenBuildTable(t, dir)
						cat.IO.Read = faultOn(fault, ec.page)
						return tbl
					}
					ref := rotted()
					want, wantStats, wantErr := referenceBuild(t, ref, p)
					wantQ := quarantineSet(ref)
					if degraded != (wantErr == nil) {
						t.Fatalf("reference: %v", wantErr)
					}
					for _, k := range buildWorkers {
						tbl := rotted()
						withWorkers(k, func() {
							got, stats, err := tbl.build(p)
							if errPage(err) != errPage(wantErr) {
								t.Fatalf("workers=%d: %v, reference %v", k, err, wantErr)
							}
							if q := quarantineSet(tbl); !reflect.DeepEqual(q, wantQ) {
								t.Fatalf("workers=%d: quarantined %v, reference %v", k, q, wantQ)
							}
							if err == nil && (stats != wantStats || got.n != want.n || !reflect.DeepEqual(got.cols, want.cols)) {
								t.Fatalf("workers=%d: %d rows, stats %+v; reference %d rows, %+v", k, got.n, stats, want.n, wantStats)
							}
						})
					}
				})
			}
		}
	}
}

// TestCRCVerifyCountExtents: the open walk, a projection and a scrub each
// verify every page exactly once at any worker count — the extents of a
// whole-heap pass are checked as they arrive, and a pass reads no page
// twice.
func TestCRCVerifyCountExtents(t *testing.T) {
	dir, np := extentTable(t)
	for _, k := range buildWorkers {
		withWorkers(k, func() {
			crc := CRCVerifyCount()
			_, tbl := reopenBuildTable(t, dir)
			counts := []int64{CRCVerifyCount() - crc}
			crc = CRCVerifyCount()
			if _, err := tbl.Materialize(); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, CRCVerifyCount()-crc)
			crc = CRCVerifyCount()
			if rep := tbl.Scrub(); !rep.Clean() {
				t.Fatalf("scrub quarantined %v", rep.Bad)
			}
			counts = append(counts, CRCVerifyCount()-crc)
			if want := []int64{int64(np), int64(np), int64(np)}; !reflect.DeepEqual(counts, want) {
				t.Fatalf("workers=%d: open, projection and scrub verified %v pages, want %v", k, counts, want)
			}
		})
	}
}

// TestAllocBudgetInsert: Insert encodes into the table's own buffer, so
// filling a file table allocates nothing per row.
func TestAllocBudgetInsert(t *testing.T) {
	const rows = 20000
	tbl := openCopyTable(t, t.TempDir(), "ins", nil)
	row := denseBuildRow(0, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		row[0].Int = int64(i)
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if objects := after.Mallocs - before.Mallocs; objects >= rows/4 {
		t.Fatalf("%d inserts made %d allocations, budget %d", rows, objects, rows/4)
	}
	if tbl.NumRows() != rows {
		t.Fatalf("%d rows, want %d", tbl.NumRows(), rows)
	}
}
