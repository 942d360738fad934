package sqlish

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bismarck/internal/data"
	"bismarck/internal/engine"
)

// TestAllocBudgetTrainStatement is the byte budget for obtaining the data,
// exact and timing-free: a sequential one-epoch TRAIN over a file table
// many times the buffer pool may allocate at most 1.5x the heap file's
// bytes (one copy into the slabs, plus the row permutation, the model and
// statement bookkeeping) in fewer than rows/4 objects — nothing per row,
// nothing per page. Before the one-copy path this statement allocated
// ~11.7x the file in ~2.5 objects per row.
func TestAllocBudgetTrainStatement(t *testing.T) {
	const rows, poolPages = 20000, 64
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	src := data.Forest(rows, 5)
	dst, err := cat.Create("papers", src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	src = nil
	if cat, err = engine.OpenFileCatalog(dir, poolPages); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	st, err := os.Stat(filepath.Join(dir, "papers.heap"))
	if err != nil {
		t.Fatal(err)
	}
	if pages := st.Size() / engine.PageSize; pages < 10*poolPages {
		t.Fatalf("table is %d pages, want at least 10x the %d-page pool", pages, poolPages)
	}

	var out bytes.Buffer
	s := &Session{Cat: cat, Out: &out}
	// The batch baseline reads the same slabs through Rows(): if a solver
	// scanned the view's pages again, the view's lazy heap (a second full
	// copy, then a fresh decode per row) would blow both budgets.
	for _, stmt := range []string{
		`SELECT * FROM papers TO TRAIN lr WITH epochs=1, seed=3 INTO m;`,
		`SELECT * FROM papers TO TRAIN lr WITH solver=batch, epochs=1, seed=3 INTO mb;`,
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = s.Exec(stmt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytesAlloc, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s\nheap file %d bytes; statement allocated %d bytes (%.2fx) in %d objects (%.3f per row)",
			stmt, st.Size(), bytesAlloc, float64(bytesAlloc)/float64(st.Size()), objects, float64(objects)/rows)
		if limit := uint64(st.Size()) * 3 / 2; bytesAlloc > limit {
			t.Errorf("%s allocated %d bytes, budget %d (1.5x the %d-byte heap file)", stmt, bytesAlloc, limit, st.Size())
		}
		if objects > rows/4 {
			t.Errorf("%s made %d allocations over %d rows, budget %d", stmt, objects, rows, rows/4)
		}
	}
}

// TestAllocBudgetLoadModel: loading a stored model — what every cache fill,
// PREDICT and EVALUATE does — reads its coefficient table in one
// reusable-scratch scan, so it allocates nothing per coefficient.
func TestAllocBudgetLoadModel(t *testing.T) {
	const coefs = 20000
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cat.Create("m", ModelSchema)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := cat.Create(metaTable("m"), MetaSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < coefs; i++ {
		w.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.F64(float64(i) + 0.5)})
	}
	for _, kv := range [][2]string{{"task", "lr"}, {"dim", "20000"}, {"p:dim", "20000"}, {"p:mu", "0"}} {
		meta.MustInsert(engine.Tuple{engine.Str(kv[0]), engine.Str(kv[1])})
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if cat, err = engine.OpenFileCatalog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	s := &Session{Cat: cat, Out: &bytes.Buffer{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, _, err := s.LoadSnapshot("m")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.W) != coefs || snap.W[coefs-1] != coefs-0.5 {
		t.Fatalf("loaded %d coefficients, last %v", len(snap.W), snap.W[len(snap.W)-1])
	}
	if objects := after.Mallocs - before.Mallocs; objects >= coefs/4 {
		t.Fatalf("LoadSnapshot of %d coefficients made %d allocations, budget %d", coefs, objects, coefs/4)
	}
}
