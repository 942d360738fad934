package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// openTestHeap opens a file heap with no I/O hooks and no tail repair.
func openTestHeap(path string, poolPages int) (*Heap, error) {
	h, _, err := openFileHeap(path, poolPages, nil, false)
	return h, err
}

// scanDegraded visits every readable record of h, skipping quarantined and
// freshly corrupt pages, and reports what was skipped.
func scanDegraded(h *Heap, fn func(rec []byte) error) (DegradedStats, error) {
	s, err := h.scanRange(0, h.st.numPages(), true, h.readPage, fn)
	return s.DegradedStats, err
}

// matRow returns the cache's row i under a header of its own.
func matRow(m *Materialized, i int) Tuple {
	row := make(Tuple, len(m.schema))
	m.load(row, i)
	return row
}

func heapBackends(t *testing.T) map[string]func() *Heap {
	t.Helper()
	dir := t.TempDir()
	n := 0
	return map[string]func() *Heap{
		"mem": NewMemHeap,
		"file": func() *Heap {
			n++
			h, err := openTestHeap(filepath.Join(dir, fmt.Sprintf("h%d.heap", n)), 8)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
}

func TestHeapAppendScanOrder(t *testing.T) {
	for name, mk := range heapBackends(t) {
		t.Run(name, func(t *testing.T) {
			h := mk()
			defer h.Close()
			const n = 500
			for i := 0; i < n; i++ {
				if err := h.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if h.NumRecords() != n {
				t.Fatalf("NumRecords = %d, want %d", h.NumRecords(), n)
			}
			i := 0
			err := h.Scan(func(rec []byte) error {
				want := fmt.Sprintf("record-%04d", i)
				if string(rec) != want {
					return fmt.Errorf("record %d = %q, want %q", i, rec, want)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != n {
				t.Fatalf("scanned %d records, want %d", i, n)
			}
		})
	}
}

func TestHeapLargeRecordsOverflow(t *testing.T) {
	for name, mk := range heapBackends(t) {
		t.Run(name, func(t *testing.T) {
			h := mk()
			defer h.Close()
			sizes := []int{10, maxInlineRecord, maxInlineRecord + 1, 3 * PageSize, 17, PageSize * 2, 5}
			var want [][]byte
			for i, sz := range sizes {
				rec := bytes.Repeat([]byte{byte('a' + i)}, sz)
				want = append(want, rec)
				if err := h.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			err := h.Scan(func(rec []byte) error {
				got = append(got, append([]byte(nil), rec...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch: got %d bytes, want %d", i, len(got[i]), len(want[i]))
				}
			}
		})
	}
}

func TestHeapScanPagesSegmentsCoverAll(t *testing.T) {
	h := NewMemHeap()
	// Mix small and overflow records so chains cross segment boundaries.
	rng := rand.New(rand.NewSource(5))
	const n = 400
	for i := 0; i < n; i++ {
		sz := 20 + rng.Intn(100)
		if i%37 == 0 {
			sz = PageSize + rng.Intn(2*PageSize)
		}
		rec := make([]byte, sz)
		rec[0] = byte(i)
		rec[1] = byte(i >> 8)
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	np := h.NumPages()
	for _, segments := range []int{1, 2, 3, 7, np} {
		seen := make(map[int]int)
		for s := 0; s < segments; s++ {
			from, to := s*np/segments, (s+1)*np/segments
			err := h.ScanPages(from, to, func(rec []byte) error {
				id := int(rec[0]) | int(rec[1])<<8
				seen[id]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != n {
			t.Fatalf("segments=%d: saw %d distinct records, want %d", segments, len(seen), n)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("segments=%d: record %d seen %d times", segments, id, c)
			}
		}
	}
}

func TestHeapScanIncludesUnflushedTail(t *testing.T) {
	h := NewMemHeap()
	for i := 0; i < 3; i++ {
		if err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := h.Scan(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scanned %d, want 3 (tail page must be visible)", n)
	}
}

func TestHeapRewriteReplaces(t *testing.T) {
	h := NewMemHeap()
	for i := 0; i < 10; i++ {
		if err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Rewrite([][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if h.NumRecords() != 2 {
		t.Fatalf("NumRecords = %d, want 2", h.NumRecords())
	}
}

func TestFileHeapReopenCountsRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	h, err := openTestHeap(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 123; i++ {
		if err := h.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := openTestHeap(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.NumRecords() != 123 {
		t.Fatalf("reopened NumRecords = %d, want 123", h2.NumRecords())
	}
}

func TestScanPagesBadRange(t *testing.T) {
	h := NewMemHeap()
	if err := h.ScanPages(-1, 0, func([]byte) error { return nil }); err == nil {
		t.Fatal("expected error for negative from")
	}
	if err := h.ScanPages(0, 5, func([]byte) error { return nil }); err == nil {
		t.Fatal("expected error for to > numPages")
	}
}
