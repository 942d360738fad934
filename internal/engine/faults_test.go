package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- helpers ---

// faultRecs builds n deterministic ~100-byte records.
func faultRecs(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("rec-%04d-%s", i, strings.Repeat("x", 88)))
	}
	return recs
}

// buildHeapFile writes recs into a fresh heap at path and closes it.
func buildHeapFile(t *testing.T, path string, recs [][]byte) {
	t.Helper()
	h, err := openTestHeap(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := h.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipBit XORs one bit of the file at byte offset off.
func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// collect scans every record (strict), copying them out.
func collect(t *testing.T, h *Heap) [][]byte {
	t.Helper()
	var out [][]byte
	if err := h.Scan(func(rec []byte) error {
		out = append(out, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// --- write-side fault matrix ---

// TestAppendFaultMatrix drives the recoverable write faults through a
// flush: the append must fail, roll the file back to the last full page,
// and leave the heap retryable once the fault clears.
func TestAppendFaultMatrix(t *testing.T) {
	for _, tc := range []struct {
		fault   IOFault
		wantMsg string
	}{
		{IOWriteError, "injected write error"},
		{IOShortWrite, "short write"},
	} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.heap")
			armed := false
			hooks := &IOHooks{Write: func(string, int) IOFault {
				if armed {
					return tc.fault
				}
				return IONone
			}}
			h, _, err := openFileHeap(path, 16, hooks, false)
			if err != nil {
				t.Fatal(err)
			}
			recs := faultRecs(10)
			for _, r := range recs {
				if err := h.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			armed = true
			if err := h.Flush(); err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("Flush under %s = %v, want %q", tc.fault, err, tc.wantMsg)
			}
			// The rollback must leave the file page-aligned with no torn tail.
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size()%PageSize != 0 {
				t.Fatalf("file size %d not page aligned after failed append", st.Size())
			}
			// Fault cleared: the same flush succeeds and nothing was lost.
			armed = false
			if err := h.Flush(); err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			got := collect(t, h)
			if len(got) != len(recs) || !bytes.Equal(got[0], recs[0]) || !bytes.Equal(got[9], recs[9]) {
				t.Fatalf("retry lost records: got %d want %d", len(got), len(recs))
			}
			h.Close()
		})
	}
}

// TestTornWriteCrashAndRepair: a torn write simulates power loss — the
// error wraps ErrInjectedCrash, no rollback runs, and the torn tail is
// left on disk. A plain open refuses the file; the repairTail open (what
// catalog recovery grants non-pair tables) truncates back to the last
// full page and keeps every record before the tear.
func TestTornWriteCrashAndRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	recs := faultRecs(10)
	buildHeapFile(t, path, recs)
	st, _ := os.Stat(path)
	fullSize := st.Size()

	armed := false
	hooks := &IOHooks{Write: func(string, int) IOFault {
		if armed {
			return IOTornWrite
		}
		return IONone
	}}
	h, _, err := openFileHeap(path, 16, hooks, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := h.Flush(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn write = %v, want ErrInjectedCrash", err)
	}
	h.Abandon() // the dying process never flushes or rolls back

	st, _ = os.Stat(path)
	if st.Size() != fullSize+PageSize/2 {
		t.Fatalf("torn tail: size %d, want %d", st.Size(), fullSize+PageSize/2)
	}
	if _, err := openTestHeap(path, 16); err == nil || !strings.Contains(err.Error(), "not page aligned") {
		t.Fatalf("plain open of torn file = %v, want alignment refusal", err)
	}
	h2, repaired, err := openFileHeap(path, 16, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if repaired != PageSize/2 {
		t.Fatalf("repaired bytes = %d, want %d", repaired, PageSize/2)
	}
	if got := collect(t, h2); len(got) != len(recs) {
		t.Fatalf("repaired heap has %d records, want %d", len(got), len(recs))
	}
}

// TestSyncFaultMatrix: a failed fsync surfaces as an error; a lying fsync
// cannot be detected at sync time — the damage (a power cut discarding
// the "synced" writes) must be caught at the NEXT open, never absorbed.
func TestSyncFaultMatrix(t *testing.T) {
	dir := t.TempDir()
	t.Run("fsync-error", func(t *testing.T) {
		path := filepath.Join(dir, "e.heap")
		hooks := &IOHooks{Sync: func(string) IOFault { return IOSyncError }}
		h, _, err := openFileHeap(path, 16, hooks, false)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if err := h.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := h.Sync(); err == nil || !strings.Contains(err.Error(), "fsync") {
			t.Fatalf("Sync = %v, want injected fsync failure", err)
		}
	})
	t.Run("fsync-lie", func(t *testing.T) {
		path := filepath.Join(dir, "l.heap")
		hooks := &IOHooks{Sync: func(string) IOFault { return IOSyncLie }}
		h, _, err := openFileHeap(path, 16, hooks, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range faultRecs(5) {
			if err := h.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		// The lie: Sync reports success without forcing anything.
		if err := h.Sync(); err != nil {
			t.Fatalf("lying Sync should report success, got %v", err)
		}
		h.Abandon()
		// Simulated power cut: the cache that lied loses half the last page.
		st, _ := os.Stat(path)
		if err := os.Truncate(path, st.Size()-PageSize/2); err != nil {
			t.Fatal(err)
		}
		// The next open must refuse the damage, not serve a shortened heap.
		if _, err := openTestHeap(path, 16); err == nil || !strings.Contains(err.Error(), "not page aligned") {
			t.Fatalf("open after lying fsync + power cut = %v, want refusal", err)
		}
	})
}

// --- read-side faults ---

// TestReadErrorRetryableButScrubQuarantines: a transient read error fails
// a strict scan (retryable once the device recovers — no quarantine), a
// degraded scan skips over it, and a scrub — whose job is to decide what
// the disk holds — quarantines the page stickily.
func TestReadErrorRetryableButScrubQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.heap")
	recs := faultRecs(200) // > 2 pages
	buildHeapFile(t, path, recs)

	armed := false
	hooks := &IOHooks{Read: func(_ string, pageID int) IOFault {
		if armed && pageID == 1 {
			return IOReadError
		}
		return IONone
	}}
	// Pool of 1 page so reads actually reach the disk (and the fault).
	h, _, err := openFileHeap(path, 1, hooks, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	total := h.NumRecords()

	armed = true
	err = h.Scan(func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "injected read error") {
		t.Fatalf("strict scan = %v, want read error", err)
	}
	var ce *CorruptPageError
	if errors.As(err, &ce) {
		t.Fatalf("transient read error must not be a CorruptPageError: %v", err)
	}
	if h.QuarantinedPages() != nil {
		t.Fatalf("transient read error quarantined: %v", h.QuarantinedPages())
	}

	n := 0
	stats, err := scanDegraded(h, func([]byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("degraded scan: %v", err)
	}
	if stats.SkippedPages != 1 || stats.SkippedRows == 0 || n+stats.SkippedRows != total {
		t.Fatalf("degraded stats %+v, visited %d of %d", stats, n, total)
	}

	// Device recovers: the strict scan works again — nothing was condemned.
	armed = false
	if got := collect(t, h); len(got) != total {
		t.Fatalf("after recovery: %d records, want %d", len(got), total)
	}

	// Scrub under the fault quarantines, and quarantine is sticky even
	// after the fault clears: scans must degrade deterministically.
	armed = true
	rep := h.Scrub()
	if len(rep.NewBad) != 1 || rep.NewBad[0] != 1 {
		t.Fatalf("scrub NewBad = %v, want [1]", rep.NewBad)
	}
	armed = false
	err = h.Scan(func([]byte) error { return nil })
	if !errors.As(err, &ce) || ce.Page != 1 {
		t.Fatalf("post-scrub strict scan = %v, want CorruptPageError on page 1", err)
	}
}

// TestBitRotHookDeterministic: the injected bit flip is a function of the
// page id, so two reads rot identically — and the checksum catches it.
func TestBitRotHookDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.heap")
	buildHeapFile(t, path, faultRecs(200))

	armed := false
	hooks := &IOHooks{Read: func(_ string, pageID int) IOFault {
		if armed && pageID == 0 {
			return IOBitRot
		}
		return IONone
	}}
	h, _, err := openFileHeap(path, 1, hooks, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	armed = true
	err = h.Scan(func([]byte) error { return nil })
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.Page != 0 || ce.Reason != "checksum mismatch" {
		t.Fatalf("scan under bit rot = %v, want checksum mismatch on page 0", err)
	}
	// Rot is sticky via quarantine: even with the fault cleared the page
	// stays out until a rewrite, which clears the quarantine wholesale.
	armed = false
	if _, bad := h.badPage(0); !bad {
		t.Fatal("rotted page not quarantined")
	}
	if err := h.Rewrite([][]byte{[]byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if h.QuarantinedPages() != nil {
		t.Fatal("rewrite must clear the quarantine")
	}
}

// --- on-disk bit-rot offset-class matrix ---

// TestBitRotOffsetClassMatrix flips one bit per offset class — header,
// slot array, record body, overflow continuation — directly in the heap
// file, and asserts each of {scan, scrub, recovery-open} detects it. The
// classes behave identically on purpose: the page CRC covers every byte,
// so no offset can rot silently.
func TestBitRotOffsetClassMatrix(t *testing.T) {
	// Pristine layout: 160 inline records fill pages 0-2, one 20000-byte
	// record follows as overflow start (page 3) + two continuations (4, 5).
	dir := t.TempDir()
	pristine := filepath.Join(dir, "pristine.heap")
	recs := faultRecs(160)
	big := bytes.Repeat([]byte("B"), 20000)
	buildHeapFile(t, pristine, append(append([][]byte{}, recs...), big))
	want, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	// 80 inline records per page: pages 0-1 data, page 2 overflow start,
	// pages 3-4 overflow continuations.
	if len(want) != 5*PageSize {
		t.Fatalf("pristine layout is %d pages, test expects 5", len(want)/PageSize)
	}
	totalRecs := len(recs) + 1

	classes := []struct {
		name string
		page int
		off  int64 // within the page
	}{
		{"header-kind", 0, 0},
		{"header-version", 0, 1},
		{"slot-array", 0, pageHeaderSize + 2},
		{"record-body", 0, PageSize - pageTrailerSize - 10},
		{"overflow-start", 2, pageHeaderSize + overflowHeaderSize + 7},
		{"overflow-cont", 3, pageHeaderSize + 10},
	}
	// recsLost: how many records a quarantined page costs at open. Rotting
	// any page of the overflow chain condemns its one record; a data page
	// costs its slot count (80 per full page here).
	recsLost := map[string]int{
		"header-kind": 80, "header-version": 80, "slot-array": 80, "record-body": 80,
		"overflow-start": 1, "overflow-cont": 1,
	}
	modes := []string{"scan", "scrub", "open"}

	for _, cl := range classes {
		for _, mode := range modes {
			t.Run(cl.name+"/"+mode, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "m.heap")
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				globalOff := int64(cl.page)*PageSize + cl.off

				switch mode {
				case "scan":
					// Rot lands after open; a tiny pool forces re-reads.
					h, _, err := openFileHeap(path, 1, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					flipBit(t, path, globalOff)
					err = h.Scan(func([]byte) error { return nil })
					var ce *CorruptPageError
					if !errors.As(err, &ce) || ce.Page != cl.page {
						t.Fatalf("scan = %v, want CorruptPageError on page %d", err, cl.page)
					}
					// Degraded completes and accounts the loss.
					n := 0
					stats, err := scanDegraded(h, func([]byte) error { n++; return nil })
					if err != nil {
						t.Fatalf("degraded: %v", err)
					}
					if stats.SkippedRows == 0 || n+stats.SkippedRows != totalRecs {
						t.Fatalf("degraded visited %d + skipped %d != %d", n, stats.SkippedRows, totalRecs)
					}
				case "scrub":
					// A large pool holds a clean cached copy; the scrub must
					// look past it at the disk, then evict it.
					h, _, err := openFileHeap(path, 64, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					flipBit(t, path, globalOff)
					rep := h.Scrub()
					if len(rep.NewBad) != 1 || rep.NewBad[0] != cl.page {
						t.Fatalf("scrub NewBad = %v, want [%d]", rep.NewBad, cl.page)
					}
					if err := h.Scan(func([]byte) error { return nil }); err == nil {
						t.Fatal("strict scan after scrub quarantine should fail")
					}
				case "open":
					flipBit(t, path, globalOff)
					h, err := openTestHeap(path, 64)
					if err != nil {
						t.Fatalf("open must quarantine, not fail: %v", err)
					}
					defer h.Close()
					q := h.QuarantinedPages()
					if _, bad := q[cl.page]; !bad {
						t.Fatalf("page %d not quarantined at open: %v", cl.page, q)
					}
					if h.NumRecords() != totalRecs-recsLost[cl.name] {
						t.Fatalf("NumRecords = %d, want %d", h.NumRecords(), totalRecs-recsLost[cl.name])
					}
				}
			})
		}
	}
}

// --- one page format: a page without a valid trailer is a corrupt page ---

// TestUnsealedPagesAreQuarantined: a file of well-formed pages that were
// never sealed (what a pre-checksum writer would have left) is not read on
// trust — every page fails verification at open like any other checksum
// failure, and nothing in it counts as readable.
func TestUnsealedPagesAreQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unsealed.heap")
	recs := faultRecs(40)
	var buf bytes.Buffer
	for _, half := range [][][]byte{recs[:20], recs[20:]} {
		p := newPage(pageData)
		for _, r := range half {
			if !p.insert(r) {
				t.Fatal("test page overflow")
			}
		}
		buf.Write(p) // no seal: the trailer stays zero
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := openTestHeap(path, 16)
	if err != nil {
		t.Fatalf("open must quarantine, not fail: %v", err)
	}
	defer h.Close()
	q := h.QuarantinedPages()
	if len(q) != 2 || q[0] != "checksum mismatch" || q[1] != "checksum mismatch" {
		t.Fatalf("quarantine map = %v, want both pages with a checksum mismatch", q)
	}
	if h.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d, want 0", h.NumRecords())
	}
	var ce *CorruptPageError
	if err := h.Scan(func([]byte) error { return nil }); !errors.As(err, &ce) || ce.Page != 0 {
		t.Fatalf("strict scan = %v, want a CorruptPageError on page 0", err)
	}
}

// --- catalog recovery integration ---

// TestRecoveryRepairsTornTailOfPlainTable: a non-model table with a torn
// tail is repaired at open (truncated to the last full page) and the
// repair is reported; every record before the tear survives.
func TestRecoveryRepairsTornTailOfPlainTable(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 0)
	tbl, err := cat.Create("d", Schema{{Name: "x", Type: TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tbl.MustInsert(Tuple{I64(int64(i))})
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	rows := tbl.NumRows()
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "d.heap"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, PageSize/3)) // torn tail
	f.Close()

	re, err := OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if what := re.Recovery.Repaired["d"]; !strings.Contains(what, "torn tail") {
		t.Fatalf("Repaired[d] = %q, want torn-tail note", what)
	}
	tbl2, err := re.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumRows() != rows {
		t.Fatalf("rows after repair = %d, want %d", tbl2.NumRows(), rows)
	}
}

// TestRecoveryQuarantinesPlainTablePages: a plain table with a rotted page
// still registers — with the bad pages surfaced in Recovery.Quarantined,
// strict scans failing typed, and degraded scans accounting the loss.
func TestRecoveryQuarantinesPlainTablePages(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 0)
	tbl, err := cat.Create("d", Schema{{Name: "x", Type: TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ { // several pages
		tbl.MustInsert(Tuple{I64(int64(i))})
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	total := tbl.NumRows()
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	flipBit(t, filepath.Join(dir, "d.heap"), PageSize+100) // page 1

	re, err := OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Recovery.Quarantined["d"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("Quarantined[d] = %v, want [1]", got)
	}
	tbl2, err := re.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	err = tbl2.Scan(func(Tuple) error { return nil })
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.Table != "d" || ce.Page != 1 {
		t.Fatalf("strict scan = %v, want CorruptPageError{Table:d, Page:1}", err)
	}
	if !strings.Contains(err.Error(), "CHECK TABLE") || !strings.Contains(err.Error(), "degraded=true") {
		t.Fatalf("error does not name the remedies: %v", err)
	}
	view, stats, err := tbl2.Project("d_view", Projection{Schema: tbl2.Schema, Degraded: true})
	if err != nil {
		t.Fatalf("degraded: %v", err)
	}
	n := view.NumRows()
	// The page was quarantined at OPEN, so its record count was never
	// learned: SkippedRows is a lower bound (possibly 0), but the page
	// count and the shortened row count are exact.
	if stats.SkippedPages != 1 || n >= total || n+stats.SkippedRows > total {
		t.Fatalf("degraded stats %+v, visited %d of %d", stats, n, total)
	}
}

// TestRecoveryCondemnsQuarantinedModelPair: corrupt pages in a model's
// coefficient table condemn the model AND its metadata side table — a
// model is never served degraded — and both heaps are quarantined aside.
func TestRecoveryCondemnsQuarantinedModelPair(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 0)
	schema := Schema{{Name: "x", Type: TInt64}}
	m, err := cat.Create("m", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		m.MustInsert(Tuple{I64(int64(i))})
	}
	if _, err := cat.Create("m"+MetaSuffix, schema); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	flipBit(t, filepath.Join(dir, "m.heap"), PageSize+50)

	re, err := OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if reason := re.Recovery.Skipped["m"]; !strings.Contains(reason, "never served degraded") {
		t.Fatalf("Skipped[m] = %q", reason)
	}
	if _, ok := re.Recovery.Skipped["m"+MetaSuffix]; !ok {
		t.Fatal("metadata partner not condemned with the model")
	}
	if len(re.Recovery.Quarantined) != 0 {
		t.Fatalf("model pair leaked into Quarantined: %v", re.Recovery.Quarantined)
	}
	for _, name := range []string{"m", "m" + MetaSuffix} {
		if _, err := re.Get(name); err == nil {
			t.Fatalf("condemned table %q still registered", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".heap.orphaned")); err != nil {
			t.Fatalf("heap of %q not quarantined aside: %v", name, err)
		}
	}
}

// TestOrphanNumberingAndRetention: repeated condemnations of one name get
// numbered forensic copies instead of overwriting, and reapOrphans bounds
// the total, keeping the newest.
func TestOrphanNumberingAndRetention(t *testing.T) {
	t.Run("numbering", func(t *testing.T) {
		dir := t.TempDir()
		cat := NewFileCatalog(dir, 0)
		if _, err := cat.Create("keep", Schema{{Name: "x", Type: TInt64}}); err != nil {
			t.Fatal(err)
		}
		if err := cat.Save(); err != nil {
			t.Fatal(err)
		}
		cat.Close()
		// An unreferenced heap beside an existing forensic copy: the new
		// quarantine must not clobber the old one.
		buildHeapFile(t, filepath.Join(dir, "stray.heap"), faultRecs(3))
		if err := os.WriteFile(filepath.Join(dir, "stray.heap.orphaned"), []byte("old evidence"), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileCatalog(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if _, err := os.Stat(filepath.Join(dir, "stray.heap.orphaned.1")); err != nil {
			t.Fatalf("numbered quarantine missing: %v", err)
		}
		old, err := os.ReadFile(filepath.Join(dir, "stray.heap.orphaned"))
		if err != nil || string(old) != "old evidence" {
			t.Fatalf("previous forensic copy clobbered: %q %v", old, err)
		}
	})
	t.Run("retention", func(t *testing.T) {
		dir := t.TempDir()
		n := OrphanRetention + 3
		base := time.Now().Add(-time.Hour)
		for i := 0; i < n; i++ {
			name := filepath.Join(dir, fmt.Sprintf("t%02d.heap.orphaned", i))
			if err := os.WriteFile(name, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			// Strictly increasing mtimes: t00 oldest, t<n-1> newest.
			mt := base.Add(time.Duration(i) * time.Minute)
			if err := os.Chtimes(name, mt, mt); err != nil {
				t.Fatal(err)
			}
		}
		cat, err := OpenFileCatalog(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		reaped := 0
		for _, s := range cat.Recovery.Swept {
			if strings.HasPrefix(s, "reaped ") {
				reaped++
			}
		}
		if reaped != 3 {
			t.Fatalf("reaped %d, want 3 (swept: %v)", reaped, cat.Recovery.Swept)
		}
		// The oldest went; the newest stayed.
		if _, err := os.Stat(filepath.Join(dir, "t00.heap.orphaned")); !os.IsNotExist(err) {
			t.Fatal("oldest orphan survived retention")
		}
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("t%02d.heap.orphaned", n-1))); err != nil {
			t.Fatal("newest orphan was reaped")
		}
	})
}

// TestCRCVerifyCountWarmScan is the deterministic form of the "<3%
// checksum overhead" guarantee: verification happens only when a page is
// filled from disk, so a warm (pool-hit) scan performs ZERO checksum
// work — the cached epoch path pays nothing.
func TestCRCVerifyCountWarmScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.heap")
	buildHeapFile(t, path, faultRecs(500))
	h, err := openTestHeap(path, DefaultPoolPages)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Cold pass fills the pool (open already did, but be explicit).
	if err := h.Scan(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := CRCVerifyCount()
	for i := 0; i < 3; i++ {
		if err := h.Scan(func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if after := CRCVerifyCount(); after != before {
		t.Fatalf("warm scans verified %d checksums, want 0", after-before)
	}
}

// BenchmarkFileHeapScan quantifies the checksum cost at both ends of the
// buffer pool: "warm" scans hit the pool on every page (zero verifies —
// the cached epoch path's regime), "cold" forces a fill+verify per page
// read via a one-page pool. The delta between cold here and cold on a
// pre-checksum build is the entire CRC bill; the warm number is the
// proof it is not paid on the steady-state path.
func BenchmarkFileHeapScan(b *testing.B) {
	for _, bc := range []struct {
		name string
		pool int
	}{
		{"warm", DefaultPoolPages},
		{"cold", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.heap")
			recs := faultRecs(4000) // ~50 pages
			h, err := openTestHeap(path, 16)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if err := h.Append(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := h.Close(); err != nil {
				b.Fatal(err)
			}
			h, err = openTestHeap(path, bc.pool)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			// The open walk reads past the pool: one scan fills it.
			if err := h.Scan(func([]byte) error { return nil }); err != nil {
				b.Fatal(err)
			}
			c0 := CRCVerifyCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Scan(func([]byte) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(CRCVerifyCount()-c0)/float64(b.N), "crc-verifies/op")
		})
	}
}
