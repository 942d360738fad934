package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"bismarck/internal/vector"
)

// Tests of the one-copy path: slab-only views with a lazy page heap, index
// shards over shared slabs, and buffer-pool frames recycled under pins.

// slabSchema has one column of every kind the slabs store.
func slabSchema() Schema {
	return Schema{
		{Name: "id", Type: TInt64},
		{Name: "vec", Type: TDenseVec},
		{Name: "sv", Type: TSparseVec},
		{Name: "iv", Type: TInt32Vec},
		{Name: "s", Type: TString},
		{Name: "label", Type: TFloat64},
	}
}

func slabRow(i int) Tuple {
	nnz := 1 + i%3 // ragged on purpose: offsets, not a fixed stride
	idx, val := make([]int32, nnz), make([]float64, nnz)
	for j := range idx {
		idx[j], val[j] = int32(i+7*j), float64(i)-0.5*float64(j)
	}
	return Tuple{I64(int64(i)), DenseV(vector.Dense{float64(i), -float64(i), 0.25}),
		SparseV(vector.NewSparse(idx, val)), IntsV([]int32{int32(i), 3}),
		Str(fmt.Sprintf("row%d", i)), F64(float64(i % 2))}
}

// slabView builds an n-row slab-only table the way ProjectView does.
func slabView(t testing.TB, n int) *Table {
	t.Helper()
	b := NewMatBuilder(slabSchema(), n, n*PageSize)
	for i := 0; i < n; i++ {
		if err := b.Add(slabRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return slabTable("v", b.Build(0))
}

// encodedRows collects every row of a scan as its encoded record.
func encodedRows(t testing.TB, scan func(func(Tuple) error) error) [][]byte {
	t.Helper()
	var out [][]byte
	if err := scan(func(tp Tuple) error { out = append(out, tp.Encode()); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantRows(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = slabRow(i).Encode()
	}
	return out
}

func sameRecords(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs", what, i)
		}
	}
}

// TestSlabViewLazyHeap: a slab-only table holds no page heap until a
// physical operation asks for one, and a correct one after.
func TestSlabViewLazyHeap(t *testing.T) {
	const n = 700 // several pages once encoded
	want := wantRows(n)
	for _, op := range []struct {
		name     string
		physical func(t *testing.T, v *Table) [][]byte // rows the operation saw or left behind
		sorted   bool                                  // compare as a multiset
	}{
		{"ScanPages", func(t *testing.T, v *Table) [][]byte {
			if v.NumPages() != 0 {
				t.Fatal("NumPages built a page heap")
			}
			segs, err := v.Segments(3)
			if err != nil || len(segs) != 3 {
				t.Fatalf("Segments: %v, %v", segs, err)
			}
			return encodedRows(t, func(fn func(Tuple) error) error {
				for _, seg := range segs {
					if err := v.ScanPages(seg[0], seg[1], fn); err != nil {
						return err
					}
				}
				return nil
			})
		}, false},
		{"CopyTo", func(t *testing.T, v *Table) [][]byte {
			dst := NewMemTable("dst", v.Schema)
			if err := v.CopyTo(dst); err != nil {
				t.Fatal(err)
			}
			return encodedRows(t, dst.Scan)
		}, false},
		{"Shuffle", func(t *testing.T, v *Table) [][]byte {
			if err := v.Shuffle(rand.New(rand.NewSource(3))); err != nil {
				t.Fatal(err)
			}
			if v.CachedRows() != nil {
				t.Fatal("the slabs must read as stale after a physical shuffle")
			}
			return encodedRows(t, v.Rows().Scan)
		}, true},
	} {
		t.Run(op.name, func(t *testing.T) {
			v := slabView(t, n)
			// Logical reads leave the view slab-only.
			sameRecords(t, "Rows", encodedRows(t, v.Rows().Scan), want)
			sameRecords(t, "ScanStable", encodedRows(t, v.ScanStable), want)
			if mat, err := v.Materialize(); err != nil || mat.NumRows() != n || v.NumRows() != n {
				t.Fatalf("Materialize: %v, %d / %d rows", err, mat.NumRows(), v.NumRows())
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			if !v.slabOnly.Load() || v.heap.NumRecords() != 0 || v.heap.NumPages() != 0 {
				t.Fatal("logical reads built a page heap")
			}
			got := op.physical(t, v)
			if v.slabOnly.Load() || v.heap.NumRecords() != n {
				t.Fatalf("after %s the view holds %d heap records, want %d", op.name, v.heap.NumRecords(), n)
			}
			if op.sorted {
				seen := map[string]int{}
				for _, r := range got {
					seen[string(r)]++
				}
				for _, r := range want {
					seen[string(r)]--
				}
				for _, c := range seen {
					if c != 0 {
						t.Fatal("shuffle changed the multiset of rows")
					}
				}
				return
			}
			sameRecords(t, op.name, got, want)
		})
	}
}

// TestSlabViewRetainedCellsStable: a header copied out of a stable scan
// still reads its original values after later scans and a view Permute —
// the contract the reservoir samplers rely on.
func TestSlabViewRetainedCellsStable(t *testing.T) {
	v := slabView(t, 200)
	var kept []Tuple
	if err := v.ScanStable(func(tp Tuple) error {
		if tp[0].Int%17 == 0 {
			kept = append(kept, append(Tuple(nil), tp...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mat, _ := v.Materialize()
	view := mat.View()
	view.Permute(rand.New(rand.NewSource(1)))
	for _, scan := range []func(func(Tuple) error) error{view.Scan, v.Rows().Scan, v.Scan} {
		if err := scan(func(Tuple) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for _, tp := range kept {
		if !bytes.Equal(tp.Encode(), slabRow(int(tp[0].Int)).Encode()) {
			t.Fatalf("retained row %d changed under later scans", tp[0].Int)
		}
	}
}

// TestIndexShardMatchesReinsert: shards are row indexes over the source's
// slabs — no per-row allocation — and shard i scans exactly the rows r, in
// source order, that the partition function assigns it (r % k, or
// mix64(r) % k), as re-inserting them into a shard heap would hold them;
// ShardChunks frames are those records cut at the byte budget.
func TestIndexShardMatchesReinsert(t *testing.T) {
	const n, budget = 1000, 4096
	permuted := func(tb *Table) [][]byte {
		mat, err := tb.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		v := mat.View()
		v.Permute(rand.New(rand.NewSource(5)))
		return encodedRows(t, v.Scan)
	}
	for _, strat := range []ShardStrategy{ShardRoundRobin, ShardHash} {
		for _, k := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/K=%d", strat, k), func(t *testing.T) {
				src := slabView(t, n)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				indexed, err := ShardTable(src, k, strat)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				defer indexed.Close()
				if m := after.Mallocs - before.Mallocs; m > 64 {
					t.Errorf("index sharding of %d rows made %d allocations: per-row work", n, m)
				}

				// The oracle: the partition function over the row generator.
				reinserted := make([]*Table, k)
				for i := range reinserted {
					reinserted[i] = NewMemTable("ref", src.Schema)
				}
				for r := 0; r < n; r++ {
					i := uint64(r) % uint64(k)
					if strat == ShardHash {
						i = mix64(uint64(r)) % uint64(k)
					}
					reinserted[i].MustInsert(slabRow(r))
				}
				for i := 0; i < k; i++ {
					sh := indexed.Shard(i)
					if !sh.slabOnly.Load() || sh.CachedRows() == nil {
						t.Fatalf("shard %d is not a slab-only table with a fresh cache", i)
					}
					want := encodedRows(t, reinserted[i].Scan)
					if indexed.RowCounts()[i] != len(want) {
						t.Fatalf("shard %d counts %d rows, want %d", i, indexed.RowCounts()[i], len(want))
					}
					sameRecords(t, "cached scan", encodedRows(t, sh.Rows().Scan), want)
					// A permuted view of the shard is the same permutation of
					// the same rows the re-inserted shard's view yields.
					sameRecords(t, "permuted view", permuted(sh), permuted(reinserted[i]))

					var frames, wantFrames [][]byte
					if err := indexed.ShardChunks(i, budget, func(recs [][]byte) error {
						frames = append(frames, bytes.Join(recs, []byte{0xff}))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(want); {
						hi, size := lo, 0
						for hi < len(want) && (hi == lo || size+len(want[hi]) <= budget) {
							size += len(want[hi])
							hi++
						}
						wantFrames = append(wantFrames, bytes.Join(want[lo:hi], []byte{0xff}))
						lo = hi
					}
					sameRecords(t, "ShardChunks", frames, wantFrames)
					sameRecords(t, "page scan", encodedRows(t, sh.Scan), want) // builds the lazy heap
				}
			})
		}
	}
}

// TestAllocBudgetSkewedFirstRow: slabs are sized from the first row's
// widths, but never past what the source's bytes could fill — one wide
// first row over narrow data must not multiply the reservation.
func TestAllocBudgetSkewedFirstRow(t *testing.T) {
	const rows, wide = 20000, 1000
	schema := Schema{{Name: "sv", Type: TSparseVec}, {Name: "vec", Type: TDenseVec}, {Name: "iv", Type: TInt32Vec}}
	tbl := NewMemTable("skew", schema)
	for i := 0; i < rows; i++ {
		n := 1
		if i == 0 {
			n = wide
		}
		idx, val, ints := make([]int32, n), make([]float64, n), make([]int32, n)
		for j := range idx {
			idx[j], val[j], ints[j] = int32(j), float64(i), int32(i)
		}
		tbl.MustInsert(Tuple{SparseV(vector.NewSparse(idx, val)), DenseV(val), IntsV(ints)})
	}
	heapBytes := uint64(tbl.NumPages()+1) * PageSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mat, err := tbl.Materialize()
	runtime.ReadMemStats(&after)
	if err != nil || mat.NumRows() != rows {
		t.Fatalf("Materialize: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*heapBytes {
		t.Fatalf("materializing %d heap bytes allocated %d (> 3x): reservation extrapolated from the wide first row", heapBytes, got)
	}
	if last := matRow(mat, rows-1); len(last[0].Sparse.Idx) != 1 || last[1].Dense[0] != rows-1 || last[2].Ints[0] != rows-1 {
		t.Fatalf("last row decoded as %v", last)
	}
}

// countingReader serves pages whose every byte is the page id, and can be
// told to fail or corrupt one page.
type countingReader struct {
	mu    sync.Mutex
	reads int
	fail  int // page id whose reads error; -1 none
}

func (r *countingReader) ReadAt(b []byte, off int64) (int, error) {
	id := int(off / PageSize)
	r.mu.Lock()
	r.reads++
	fail := r.fail
	r.mu.Unlock()
	if id == fail {
		return 0, errors.New("injected")
	}
	for i := range b {
		b[i] = byte(id)
	}
	return len(b), nil
}

func poolFrames(bp *BufferPool) int {
	n := 0
	for i := range bp.shards {
		n += bp.shards[i].lru.Len()
	}
	return n
}

// TestPoolPinRecyclesFrames: a pinned frame is never refilled, a pool
// swept by 20x its capacity owns cap frames, a failed fill caches nothing
// and costs the pool no frame, and an all-pinned shard sheds its extra
// frame again.
func TestPoolPinRecyclesFrames(t *testing.T) {
	const capPages = 4
	src := &countingReader{fail: -1}
	bp := NewBufferPool(src, capPages)
	get := func(id int) *frame {
		t.Helper()
		f, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.data[0] != byte(id) || f.data[PageSize-1] != byte(id) {
			t.Fatalf("page %d served page %d's bytes", id, f.data[0])
		}
		return f
	}
	held := get(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pass := 0; pass < 2; pass++ {
		for id := 1; id <= 20*capPages; id++ {
			get(id).unpin()
			if held.data[0] != 0 || held.data[PageSize/2] != 0 {
				t.Fatalf("pinned page 0 was refilled while reading page %d", id)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n := poolFrames(bp); n != capPages {
		t.Fatalf("pool owns %d frames after the sweep, want %d", n, capPages)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > capPages*PageSize+4096 {
		t.Fatalf("sweeping %d pages allocated %d bytes: frames are not recycled", 40*capPages, got)
	}
	held.unpin()

	// A failed fill is not cached and gives its frame back.
	src.fail = 7
	for i := 0; i < 3; i++ {
		if _, err := bp.Get(7); err == nil {
			t.Fatal("injected read error not reported")
		}
	}
	src.fail = -1
	reads := src.reads
	get(7).unpin()
	if src.reads != reads+1 {
		t.Fatal("a failed fill was cached")
	}
	if n := poolFrames(bp); n > capPages {
		t.Fatalf("failed fills leaked frames: %d owned, cap %d", n, capPages)
	}

	// More readers than frames: extra frames appear and are shed at unpin.
	var pins []*frame
	for id := 100; id < 100+2*capPages; id++ {
		pins = append(pins, get(id))
	}
	if n := poolFrames(bp); n != 2*capPages {
		t.Fatalf("all-pinned pool owns %d frames, want %d", n, 2*capPages)
	}
	for i, f := range pins {
		if f.data[0] != byte(100+i) {
			t.Fatalf("pinned page %d overwritten", 100+i)
		}
		f.unpin()
	}
	if n := poolFrames(bp); n != capPages {
		t.Fatalf("pool kept %d frames after the burst, want %d", n, capPages)
	}
	// Invalidating a pinned page leaves its reader's bytes alone: the next
	// Get fills another frame, and the stale one cannot unmap the fresh one.
	stale := get(50)
	bp.Invalidate(50)
	fresh := get(50)
	if fresh == stale || stale.data[0] != 50 {
		t.Fatal("an invalidated pinned frame was refilled under its reader")
	}
	stale.unpin()
	get(51).unpin() // recycles the stale frame
	reads = src.reads
	fresh.unpin()
	get(50).unpin()
	if src.reads != reads {
		t.Fatal("recycling the invalidated frame unmapped its successor")
	}
	hits, misses := bp.Stats()
	if hits != 1 || misses != int64(src.reads) {
		t.Fatalf("stats hits=%d misses=%d over %d reads", hits, misses, src.reads)
	}
}

// TestPoolPinConcurrentScansAndScrub: two reusable-scratch scans and a
// scrub race over one file table through a 4-page pool; every row of every
// pass must decode to its own values (run under -race).
func TestPoolPinConcurrentScansAndScrub(t *testing.T) {
	const rows, dim, passes = 600, 64, 40
	h, err := openTestHeap(filepath.Join(t.TempDir(), "pin.heap"), 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Name: "pin", Schema: matSchema(), heap: h}
	defer tbl.Close()
	fillMatTable(t, tbl, rows, dim)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.NumPages() < 20 {
		t.Fatalf("table spans %d pages, want several times the pool", tbl.NumPages())
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := 0; p < passes && errs[g] == nil; p++ {
				i := 0
				errs[g] = tbl.ScanReuse(func(tp Tuple) error {
					if tp[0].Int != int64(i) || len(tp[1].Dense) != dim ||
						tp[1].Dense[0] != float64(i*dim) || tp[1].Dense[dim-1] != float64(i*dim+dim-1) ||
						tp[2].Float != float64(i%2) {
						return fmt.Errorf("scan %d pass %d: row %d decoded as %v", g, p, i, tp)
					}
					i++
					return nil
				})
				if errs[g] == nil && i != rows {
					errs[g] = fmt.Errorf("scan %d pass %d saw %d rows", g, p, i)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := 0; p < passes; p++ {
			if rep := tbl.Scrub(); !rep.Clean() {
				errs[2] = fmt.Errorf("scrub pass %d quarantined %v", p, rep.Bad)
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := poolFrames(h.st.(*fileStore).pool); n > 4 {
		t.Fatalf("pool owns %d frames at rest, cap 4", n)
	}
}
