package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"bismarck/internal/vector"
)

func matSchema() Schema {
	return Schema{
		{Name: "id", Type: TInt64},
		{Name: "vec", Type: TDenseVec},
		{Name: "label", Type: TFloat64},
	}
}

func fillMatTable(t *testing.T, tbl *Table, rows, dim int) {
	t.Helper()
	for i := 0; i < rows; i++ {
		v := make(vector.Dense, dim)
		for j := range v {
			v[j] = float64(i*dim + j)
		}
		if err := tbl.Insert(Tuple{I64(int64(i)), DenseV(v), F64(float64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTableVersionBumps(t *testing.T) {
	tbl := NewMemTable("v", matSchema())
	v0 := tbl.Version()
	fillMatTable(t, tbl, 4, 3)
	if tbl.Version() == v0 {
		t.Fatal("Insert did not bump the version")
	}
	v1 := tbl.Version()
	if err := tbl.Shuffle(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v1 {
		t.Fatal("Shuffle did not bump the version")
	}
	v2 := tbl.Version()
	if err := tbl.ClusterBy(func(tp Tuple) float64 { return tp[2].Float }); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v2 {
		t.Fatal("ClusterBy did not bump the version")
	}
	dst := NewMemTable("dst", matSchema())
	dv := dst.Version()
	if err := tbl.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	if dst.Version() == dv {
		t.Fatal("CopyTo did not bump the destination version")
	}
}

func TestMaterializeCacheAndInvalidation(t *testing.T) {
	tbl := NewMemTable("m", matSchema())
	fillMatTable(t, tbl, 10, 4)

	m1, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("unchanged table should return the cached materialization")
	}
	if m1.NumRows() != 10 {
		t.Fatalf("cached %d rows, want 10", m1.NumRows())
	}

	// The cache must agree with the heap, row for row.
	i := 0
	err = tbl.Scan(func(tp Tuple) error {
		row := matRow(m1, i)
		if row[0].Int != tp[0].Int || row[2].Float != tp[2].Float ||
			len(row[1].Dense) != len(tp[1].Dense) || row[1].Dense[0] != tp[1].Dense[0] {
			return fmt.Errorf("row %d: cache %v != heap %v", i, row, tp)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Insert invalidates.
	if err := tbl.Insert(Tuple{I64(99), DenseV(vector.Dense{1, 2, 3, 4}), F64(1)}); err != nil {
		t.Fatal(err)
	}
	if tbl.CachedRows() != nil {
		t.Fatal("CachedRows should be nil after Insert")
	}
	m3, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 || m3.NumRows() != 11 {
		t.Fatalf("expected rebuilt cache with 11 rows, got %d (same=%v)", m3.NumRows(), m3 == m1)
	}

	// Shuffle invalidates and the rebuilt cache reflects the new order.
	if err := tbl.Shuffle(rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	if tbl.CachedRows() != nil {
		t.Fatal("CachedRows should be nil after Shuffle")
	}
	m4, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	i = 0
	err = tbl.Scan(func(tp Tuple) error {
		if matRow(m4, i)[0].Int != tp[0].Int {
			return fmt.Errorf("row %d: cache order diverged from heap after shuffle", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeAfterDropRecreate(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 8)
	tbl, err := cat.Create("d", matSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillMatTable(t, tbl, 5, 2)
	if _, err := tbl.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Drop("d"); err != nil {
		t.Fatal(err)
	}
	tbl2, err := cat.Create("d", matSchema())
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 0 {
		t.Fatalf("recreated table cached %d rows, want 0", m.NumRows())
	}
}

func TestMatViewPermutationIsolation(t *testing.T) {
	tbl := NewMemTable("p", matSchema())
	fillMatTable(t, tbl, 32, 2)
	mat, err := tbl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := mat.View(), mat.View()
	v1.Permute(rand.New(rand.NewSource(3)))

	// v1 visits every row exactly once, in a changed order.
	seen := make(map[int64]bool)
	order := []int64{}
	if err := v1.Scan(func(tp Tuple) error {
		if seen[tp[0].Int] {
			return fmt.Errorf("row %d visited twice", tp[0].Int)
		}
		seen[tp[0].Int] = true
		order = append(order, tp[0].Int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 32 {
		t.Fatalf("permuted view visited %d rows, want 32", len(seen))
	}
	sorted := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("permuted view still in storage order (vanishingly unlikely)")
	}

	// v2 and the materialization itself stay in storage order.
	for _, scan := range []func(func(Tuple) error) error{v2.Scan, mat.Scan} {
		i := int64(0)
		if err := scan(func(tp Tuple) error {
			if tp[0].Int != i {
				return fmt.Errorf("storage order disturbed at %d: got %d", i, tp[0].Int)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// gatherRow is a row of every column type whose vectors run from empty to
// several cache lines wide, so gathered blocks straddle line boundaries.
func gatherRow(i int) Tuple {
	w := i % 41
	dense := make(vector.Dense, w)
	for j := range dense {
		dense[j] = float64(i) + float64(j)/64
	}
	idx, val := make([]int32, w/2), make([]float64, w/2)
	for j := range idx {
		idx[j], val[j] = int32(3*j+i%3), -float64(i*j)
	}
	ints := make([]int32, i*7%37)
	for j := range ints {
		ints[j] = int32(i - j)
	}
	return Tuple{I64(int64(i)), F64(float64(i) / 7), Str(fmt.Sprintf("r%d", i)), DenseV(dense),
		SparseV(vector.NewSparse(idx, val)), IntsV(ints)}
}

// TestPermutedScanGather: a scan over a shuffled index, which gathers each
// block of rows before visiting it, visits exactly the rows Row returns, in
// order, over every [from, to) shape around the block size; stops at the
// row whose callback fails; and allocates what an unpermuted scan of the
// same view does.
func TestPermutedScanGather(t *testing.T) {
	const n = 8*gatherRows + 21
	schema := Schema{{Name: "id", Type: TInt64}, {Name: "f", Type: TFloat64}, {Name: "s", Type: TString},
		{Name: "vec", Type: TDenseVec}, {Name: "sv", Type: TSparseVec}, {Name: "iv", Type: TInt32Vec}}
	b := NewMatBuilder(schema, n, n*PageSize)
	for i := 0; i < n; i++ {
		if err := b.Add(gatherRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := slabTable("g", b.Build(0))
	shards, err := ShardTable(src, 2, ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := ShardTable(shards.Shard(1), 2, ShardHash)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(tb *Table) *Materialized {
		mat, err := tb.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	permuted := func(mat *Materialized, seed int64) *Materialized {
		v := mat.View()
		v.Permute(rand.New(rand.NewSource(seed)))
		return &v.Materialized
	}
	every3rd := func(m *Materialized) []int32 {
		var rows []int32
		for i := 0; i < m.n; i += 3 {
			rows = append(rows, int32(i))
		}
		return rows
	}
	mat := cached(src)
	pv := permuted(mat, 1)
	cases := []struct {
		name          string
		plain, gather *Materialized
	}{
		{"view", mat, pv},
		{"shard", cached(shards.Shard(1)), permuted(cached(shards.Shard(1)), 2)},
		{"shard of shard", cached(inner.Shard(0)), permuted(cached(inner.Shard(0)), 3)},
		{"subset of permuted", mat.subset(every3rd(mat)), pv.subset(every3rd(pv))},
	}
	errStop := errors.New("stop")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.gather
			if !m.shuffled || c.plain.shuffled {
				t.Fatalf("shuffled: gathered view %v, plain view %v", m.shuffled, c.plain.shuffled)
			}
			for _, from := range []int{0, 5, gatherRows - 1} {
				for _, length := range []int{0, 1, gatherRows - 1, gatherRows, gatherRows + 1,
					2*gatherRows + 30, m.n - from} {
					to := from + length
					if to > m.n {
						continue
					}
					i := from
					if err := m.ScanSegment(from, to, func(tp Tuple) error {
						if !bytes.Equal(tp.Encode(), matRow(m, i).Encode()) {
							return fmt.Errorf("position %d differs from Row", i)
						}
						i++
						return nil
					}); err != nil {
						t.Fatalf("[%d,%d): %v", from, to, err)
					}
					if i != to {
						t.Fatalf("[%d,%d) stopped at %d", from, to, i)
					}
				}
			}
			for _, fail := range []int{0, 30, gatherRows, gatherRows + 30} {
				calls := 0
				err := m.ScanSegment(0, m.n, func(Tuple) error {
					calls++
					if calls == fail+1 {
						return errStop
					}
					return nil
				})
				if !errors.Is(err, errStop) || calls != fail+1 {
					t.Fatalf("fn failing at row %d: %d callbacks, err %v", fail, calls, err)
				}
			}
			scan := func(m *Materialized) func() {
				return func() {
					if err := m.ScanSegment(0, m.n, func(Tuple) error { return nil }); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := testing.AllocsPerRun(10, scan(m)), testing.AllocsPerRun(10, scan(c.plain)); got != want {
				t.Fatalf("gathered scan allocates %v, unpermuted %v", got, want)
			}
		})
	}

	// Concurrent segment scans of one shuffled view, as shard and NoLock
	// workers run them, share nothing mutable (run under -race).
	var wg sync.WaitGroup
	for _, seg := range rowSegments(pv.n, 2) {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			if err := pv.ScanSegment(from, to, func(Tuple) error { return nil }); err != nil {
				t.Error(err)
			}
		}(seg[0], seg[1])
	}
	wg.Wait()
}

// TestSlabIndexGuard: slabs are indexed by int32, so a cache fails loudly —
// with the typed error, before any offset wraps — once it would pass 2³¹−1
// rows or 2³¹−1 entries in one vector column. The boundary is driven
// through the builder's own counters, not a 16 GiB allocation.
func TestSlabIndexGuard(t *testing.T) {
	var col matCol
	if err := col.endRow(math.MaxInt32); err != nil || col.offs[0] != math.MaxInt32 {
		t.Fatalf("endRow at the last representable offset: %v, offs %v", err, col.offs)
	}
	var so *SlabOverflowError
	if err := col.endRow(math.MaxInt32 + 1); !errors.As(err, &so) || so.Count != math.MaxInt32+1 {
		t.Fatalf("endRow past int32 = %v, want *SlabOverflowError", err)
	}
	if len(col.offs) != 1 {
		t.Fatalf("a refused offset was appended: %d offsets", len(col.offs))
	}

	b := NewMatBuilder(Schema{{Name: "x", Type: TInt64}}, 0, 0)
	if err := b.Add(Tuple{I64(1)}); err != nil {
		t.Fatal(err)
	}
	b.n = math.MaxInt32 // as if that many rows had been added
	if err := b.Add(Tuple{I64(2)}); !errors.As(err, &so) {
		t.Fatalf("Add past 2^31-1 rows = %v, want *SlabOverflowError", err)
	}
	if b.n != math.MaxInt32 || len(b.cols[0].ints) != 1 {
		t.Fatalf("a refused row was added: n=%d, %d cells", b.n, len(b.cols[0].ints))
	}
}

func TestScanRejectsCorruptRecords(t *testing.T) {
	schema := Schema{{Name: "a", Type: TInt64}, {Name: "b", Type: TFloat64}}
	mk := func() *Table {
		tbl := NewMemTable("c", schema)
		if err := tbl.Insert(Tuple{I64(1), F64(2)}); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	cases := []struct {
		name string
		rec  []byte
	}{
		{"truncated", Tuple{I64(7), F64(8)}.Encode()[:5]},
		{"short-arity", Tuple{I64(7)}.Encode()},
		{"wrong-type", Tuple{I64(7), I64(8)}.Encode()},
		{"extra-column", Tuple{I64(7), F64(8), F64(9)}.Encode()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := mk()
			if err := tbl.heap.Append(c.rec); err != nil {
				t.Fatal(err)
			}
			err := tbl.Scan(func(Tuple) error { return nil })
			var ce *CorruptRecordError
			if !errors.As(err, &ce) {
				t.Fatalf("want CorruptRecordError, got %v", err)
			}
			if ce.Table != "c" {
				t.Fatalf("error lost the table name: %v", ce)
			}
		})
	}
}

// TestScanRejectsUnsortedSparse guards the vector kernels' sorted-index
// fast path: a length-consistent but out-of-order sparse record (the shape
// bit corruption produces) must be rejected at decode time, not surface as
// an index panic inside a gradient step.
func TestScanRejectsUnsortedSparse(t *testing.T) {
	schema := Schema{{Name: "sv", Type: TSparseVec}}
	tbl := NewMemTable("us", schema)
	bad := Tuple{{Type: TSparseVec, Sparse: vector.Sparse{
		Idx: []int32{50000, 3}, Val: []float64{1, 2},
	}}}
	if err := tbl.heap.Append(bad.Encode()); err != nil {
		t.Fatal(err)
	}
	err := tbl.Scan(func(Tuple) error { return nil })
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptRecordError for unsorted sparse indices, got %v", err)
	}
}

// TestRowsMatchesScan: the two reads of a table — Rows() over a fresh
// cache and Scan over the pages — yield the same records in the same order,
// across sparse, int32-vector and string columns.
func TestRowsMatchesScan(t *testing.T) {
	schema := Schema{
		{Name: "id", Type: TInt64},
		{Name: "sv", Type: TSparseVec},
		{Name: "iv", Type: TInt32Vec},
		{Name: "s", Type: TString},
	}
	tbl := NewMemTable("r", schema)
	var want [][]byte
	for i := 0; i < 20; i++ {
		sv := vector.NewSparse([]int32{int32(i), int32(i + 5)}, []float64{float64(i), -float64(i)})
		tp := Tuple{I64(int64(i)), SparseV(sv), IntsV([]int32{int32(i), 0, 3}), Str(fmt.Sprintf("row%d", i))}
		if err := tbl.Insert(tp); err != nil {
			t.Fatal(err)
		}
		want = append(want, tp.Encode())
	}
	sameRecords(t, "Scan", encodedRows(t, tbl.Scan), want)
	if _, err := tbl.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if _, ok := rows.(*Materialized); !ok {
		t.Fatalf("Rows() over a fresh cache is a %T, want the cache", rows)
	}
	sameRecords(t, "Rows", encodedRows(t, rows.Scan), want)
}

// TestConcurrentSegmentScans exercises the sharded buffer pool under
// -race: many goroutines scanning disjoint (and overlapping) page ranges
// of one file-backed table concurrently, as the parallel trainers do.
func TestConcurrentSegmentScans(t *testing.T) {
	dir := t.TempDir()
	h, err := openTestHeap(filepath.Join(dir, "seg.heap"), 4) // tiny pool: force eviction races
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Name: "seg", Schema: matSchema(), heap: h}
	defer tbl.Close()
	fillMatTable(t, tbl, 500, 8)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := tbl.Segments(8)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	total := make([]int, len(segs)*2)
	errs := make([]error, len(segs)*2)
	for rep := 0; rep < 2; rep++ {
		for i, seg := range segs {
			wg.Add(1)
			go func(slot, from, to int) {
				defer wg.Done()
				n := 0
				errs[slot] = tbl.ScanSegment(from, to, func(Tuple) error { n++; return nil })
				total[slot] = n
			}(rep*len(segs)+i, seg[0], seg[1])
		}
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	for rep := 0; rep < 2; rep++ {
		sum := 0
		for i := range segs {
			sum += total[rep*len(segs)+i]
		}
		if sum != 500 {
			t.Fatalf("rep %d: segment scans covered %d rows, want 500", rep, sum)
		}
	}
}
