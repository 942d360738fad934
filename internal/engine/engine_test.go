package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bismarck/internal/vector"
)

func exampleSchema() Schema {
	return Schema{{"id", TInt64}, {"vec", TDenseVec}, {"label", TFloat64}}
}

func fillExampleTable(t *testing.T, tbl *Table, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := vector.Dense{rng.NormFloat64(), rng.NormFloat64()}
		lbl := float64(1)
		if i%2 == 1 {
			lbl = -1
		}
		if err := tbl.Insert(Tuple{I64(int64(i)), DenseV(v), F64(lbl)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTableInsertScan(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 100, 1)
	if tbl.NumRows() != 100 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	i := int64(0)
	err := tbl.Scan(func(tp Tuple) error {
		if tp[0].Int != i {
			return fmt.Errorf("row %d has id %d", i, tp[0].Int)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableInsertSchemaMismatch(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	if err := tbl.Insert(Tuple{F64(1)}); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestTableClusterBy(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 50, 2)
	// Cluster by label: all -1 rows before all +1 rows (the CA-TX layout).
	if err := tbl.ClusterBy(func(tp Tuple) float64 { return tp[2].Float }); err != nil {
		t.Fatal(err)
	}
	var labels []float64
	if err := tbl.Scan(func(tp Tuple) error {
		labels = append(labels, tp[2].Float)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] < labels[i-1] {
			t.Fatalf("labels not clustered at %d: %v then %v", i, labels[i-1], labels[i])
		}
	}
}

func TestTableShuffleKeepsRows(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 200, 3)
	if err := tbl.Shuffle(rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	if err := tbl.Scan(func(tp Tuple) error {
		seen[tp[0].Int] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 200 {
		t.Fatalf("shuffle lost rows: %d", len(seen))
	}
}

func TestSegmentsPartitionPages(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 1000, 4)
	segs, err := tbl.Segments(4)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0][0] != 0 || segs[len(segs)-1][1] != tbl.NumPages() {
		t.Fatalf("segments do not cover pages: %v (np=%d)", segs, tbl.NumPages())
	}
	for i := 1; i < len(segs); i++ {
		if segs[i][0] != segs[i-1][1] {
			t.Fatalf("segments not contiguous: %v", segs)
		}
	}
}

// countUDA counts tuples; it merges, so every plan can run it.
type countUDA struct{}

func (countUDA) Initialize() State                 { return int64(0) }
func (countUDA) Transition(s State, _ Tuple) State { return s.(int64) + 1 }
func (countUDA) Terminate(s State) State           { return s }
func (countUDA) Merge(a, b State) State            { return a.(int64) + b.(int64) }

// sumUDA sums a float64 column.
type sumUDA struct{ col int }

func (u sumUDA) Initialize() State                 { return float64(0) }
func (u sumUDA) Transition(s State, t Tuple) State { return s.(float64) + t[u.col].Float }
func (u sumUDA) Terminate(s State) State           { return s }
func (u sumUDA) Merge(a, b State) State            { return a.(float64) + b.(float64) }

// noMergeUDA counts tuples but cannot merge, so only the one-segment plan
// can run it.
type noMergeUDA struct{}

func (noMergeUDA) Initialize() State                 { return 0 }
func (noMergeUDA) Transition(s State, _ Tuple) State { return s.(int) + 1 }
func (noMergeUDA) Terminate(s State) State           { return s }

func TestRunUDACountSequentialAndParallel(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 777, 5)
	for _, p := range []Profile{
		{Name: "seq", Segments: 1},
		{Name: "par4", Segments: 4},
		{Name: "par16", Segments: 16},
	} {
		got, err := RunUDA(tbl, countUDA{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.(int64) != 777 {
			t.Fatalf("%s: count = %v, want 777", p.Name, got)
		}
	}
}

func TestRunUDASumMatchesAcrossPlans(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 500, 6)
	seqv, err := RunUDA(tbl, sumUDA{col: 2}, Profile{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	parv, err := RunUDA(tbl, sumUDA{col: 2}, Profile{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := seqv.(float64) - parv.(float64); d > 1e-9 || d < -1e-9 {
		t.Fatalf("sum differs: seq=%v par=%v", seqv, parv)
	}
}

func TestRunUDAParallelRequiresMerge(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 10, 7)
	if _, err := RunUDA(tbl, noMergeUDA{}, Profile{Segments: 2}); err == nil {
		t.Fatal("expected error: parallel plan without merge")
	}
}

func TestRunSharedScanVisitsAllOnce(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 600, 8)
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		seen := make(map[int64]int)
		var calls atomic.Int64
		err := RunSharedScan(tbl, workers, Profile{}, func(w int, tp Tuple) error {
			calls.Add(1)
			mu.Lock()
			seen[tp[0].Int]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 600 || len(seen) != 600 {
			t.Fatalf("workers=%d: %d calls, %d distinct", workers, calls.Load(), len(seen))
		}
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Create("a", exampleSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("a", exampleSchema()); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("zzz"); err == nil {
		t.Fatal("Get of missing table should fail")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Names = %v", got)
	}
	if err := c.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("a"); err == nil {
		t.Fatal("double drop should fail")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileCatalogCreatesFiles(t *testing.T) {
	dir := t.TempDir()
	c := NewFileCatalog(dir, 4)
	tbl, err := c.Create("data", exampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillExampleTable(t, tbl, 50, 11)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "data.heap")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bp.heap")
	h, err := openTestHeap(path, 2) // tiny pool: 2 pages
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Write enough records to span several pages.
	rec := make([]byte, 1000)
	for i := 0; i < 60; i++ {
		rec[0] = byte(i)
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() < 5 {
		t.Fatalf("expected >=5 pages, got %d", h.NumPages())
	}
	// Two full scans: pool of 2 over >=5 pages must evict but stay correct.
	for pass := 0; pass < 2; pass++ {
		n := 0
		if err := h.Scan(func(r []byte) error {
			if r[0] != byte(n) {
				return fmt.Errorf("pass %d rec %d corrupted", pass, n)
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 60 {
			t.Fatalf("pass %d scanned %d", pass, n)
		}
	}
	fs := h.st.(*fileStore)
	hits, misses := fs.pool.Stats()
	if hits+misses == 0 {
		t.Fatal("pool unused")
	}
	if misses <= int64(h.NumPages()) {
		t.Fatalf("with pool=2 over %d pages and 3 scans, expected evictions (misses=%d)", h.NumPages(), misses)
	}
}

func TestBufferPoolConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	h, err := openTestHeap(filepath.Join(dir, "c.heap"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 200; i++ {
		if err := h.Append([]byte(fmt.Sprintf("row-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			errs[g] = h.Scan(func([]byte) error { n++; return nil })
			if errs[g] == nil && n != 200 {
				errs[g] = fmt.Errorf("goroutine %d scanned %d", g, n)
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
}

func TestNullUDAIsNoOp(t *testing.T) {
	tbl := NewMemTable("t", exampleSchema())
	fillExampleTable(t, tbl, 10, 12)
	got, err := RunUDA(tbl, NullUDA{}, Profile{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("NULL aggregate returned %v", got)
	}
}

// TestValidTableName pins the catalog's name validation: path tricks and
// control bytes must be rejected before any heap file path is formed.
func TestValidTableName(t *testing.T) {
	for _, bad := range []string{"", "../x", "a/b", `a\b`, "m\x00", "m\nx", "m\tx", "\x7f"} {
		if err := ValidTableName(bad); err == nil {
			t.Errorf("ValidTableName(%q) accepted", bad)
		}
	}
	for _, ok := range []string{"m", "my model", "m;x", "it's", "forest_svm", "m__meta", "a..b", ".."} {
		if err := ValidTableName(ok); err != nil {
			t.Errorf("ValidTableName(%q): %v", ok, err)
		}
	}
}

// TestFileCatalogRejectsCaseCollision: on a file catalog, "m" and "M"
// would share one heap file on a case-insensitive filesystem.
func TestFileCatalogRejectsCaseCollision(t *testing.T) {
	schema := Schema{{Name: "x", Type: TInt64}}
	fc := NewFileCatalog(t.TempDir(), 0)
	defer fc.Close()
	if _, err := fc.Create("m", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Create("M", schema); err == nil ||
		!strings.Contains(err.Error(), "case-insensitively") {
		t.Fatalf("file catalog case collision: %v", err)
	}
	// In-memory catalogs have no files and keep case-sensitive semantics.
	mc := NewCatalog()
	defer mc.Close()
	if _, err := mc.Create("m", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Create("M", schema); err != nil {
		t.Fatalf("mem catalog should allow distinct case: %v", err)
	}
}
