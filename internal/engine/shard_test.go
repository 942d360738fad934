package engine

import (
	"fmt"
	"testing"
)

// shardSrcTable builds an (id, v) table with n rows, id = 0..n-1.
func shardSrcTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewMemTable("src", Schema{
		{Name: "id", Type: TInt64},
		{Name: "v", Type: TFloat64},
	})
	for i := 0; i < n; i++ {
		tbl.MustInsert(Tuple{I64(int64(i)), F64(float64(i) * 0.5)})
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// shardIDs collects the id column of one shard in storage order.
func shardIDs(t *testing.T, sh *Table) []int64 {
	t.Helper()
	var ids []int64
	if err := sh.Scan(func(tp Tuple) error {
		ids = append(ids, tp[0].Int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestShardTableRoundRobinBalancedAndComplete(t *testing.T) {
	const n, k = 103, 4
	src := shardSrcTable(t, n)
	sharded, err := ShardTable(src, k, ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.NumShards() != k || sharded.NumRows() != n {
		t.Fatalf("NumShards=%d NumRows=%d", sharded.NumShards(), sharded.NumRows())
	}
	seen := map[int64]int{}
	for i := 0; i < k; i++ {
		ids := shardIDs(t, sharded.Shard(i))
		if len(ids) != sharded.RowCounts()[i] {
			t.Fatalf("shard %d: %d rows scanned, RowCounts says %d", i, len(ids), sharded.RowCounts()[i])
		}
		// Round-robin balance: counts differ by at most one.
		if len(ids) != n/k && len(ids) != n/k+1 {
			t.Errorf("shard %d has %d rows, want %d or %d", i, len(ids), n/k, n/k+1)
		}
		for _, id := range ids {
			seen[id]++
			// Round-robin assignment is id % k for this table (ids are row
			// numbers).
			if int(id)%k != i {
				t.Errorf("row %d landed in shard %d, want %d", id, i, int(id)%k)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("union covers %d rows, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("row %d appears %d times", id, c)
		}
	}
}

func TestShardTableHashDeterministicAndComplete(t *testing.T) {
	const n, k = 1000, 4
	src := shardSrcTable(t, n)
	build := func() (*ShardedTable, [][]int64) {
		t.Helper()
		sharded, err := ShardTable(src, k, ShardHash)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([][]int64, k)
		for i := 0; i < k; i++ {
			ids[i] = shardIDs(t, sharded.Shard(i))
		}
		return sharded, ids
	}
	a, aIDs := build()
	defer a.Close()
	b, bIDs := build()
	defer b.Close()

	total := 0
	for i := 0; i < k; i++ {
		if fmt.Sprint(aIDs[i]) != fmt.Sprint(bIDs[i]) {
			t.Fatalf("hash partitioning not deterministic on shard %d", i)
		}
		total += len(aIDs[i])
		// Balanced in expectation: no shard pathologically empty or huge.
		if len(aIDs[i]) < n/k/2 || len(aIDs[i]) > n/k*2 {
			t.Errorf("hash shard %d has %d rows (n/k = %d)", i, len(aIDs[i]), n/k)
		}
	}
	if total != n {
		t.Fatalf("hash shards hold %d rows, want %d", total, n)
	}
}

func TestShardTablePrimesShardCaches(t *testing.T) {
	src := shardSrcTable(t, 40)
	sharded, err := ShardTable(src, 3, ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for i := 0; i < sharded.NumShards(); i++ {
		sh := sharded.Shard(i)
		mat := sh.CachedRows()
		if mat == nil {
			t.Fatalf("shard %d cache not primed", i)
		}
		if mat.NumRows() != sh.NumRows() {
			t.Fatalf("shard %d cache has %d rows, heap %d", i, mat.NumRows(), sh.NumRows())
		}
	}
}

func TestShardTableSingleShardPreservesOrder(t *testing.T) {
	const n = 25
	src := shardSrcTable(t, n)
	sharded, err := ShardTable(src, 1, ShardHash)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	ids := shardIDs(t, sharded.Shard(0))
	if len(ids) != n {
		t.Fatalf("got %d rows, want %d", len(ids), n)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d out of order: id %d", i, id)
		}
	}
}

func TestShardTableMoreShardsThanRows(t *testing.T) {
	src := shardSrcTable(t, 3)
	sharded, err := ShardTable(src, 8, ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.NumRows() != 3 {
		t.Fatalf("NumRows = %d", sharded.NumRows())
	}
	empty := 0
	for _, c := range sharded.RowCounts() {
		if c == 0 {
			empty++
		}
	}
	if empty != 5 {
		t.Fatalf("%d empty shards, want 5 (counts %v)", empty, sharded.RowCounts())
	}
}

func TestShardTableRejectsBadArguments(t *testing.T) {
	src := shardSrcTable(t, 4)
	if _, err := ShardTable(src, 0, ShardRoundRobin); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := ShardTable(src, -2, ShardHash); err == nil {
		t.Fatal("negative k must error")
	}
	if _, err := ShardTable(src, 2, ShardStrategy(9)); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestShardStrategyString(t *testing.T) {
	if ShardRoundRobin.String() != "roundrobin" || ShardHash.String() != "hash" {
		t.Fatalf("strategy names: %s / %s", ShardRoundRobin, ShardHash)
	}
	if ShardStrategy(9).String() != "ShardStrategy(9)" {
		t.Fatal("unknown strategy string")
	}
}

// TestShardCountsMatchShardTable: the count-only path SHOW SHARDS reports
// through must agree exactly with what ShardTable actually builds.
func TestShardCountsMatchShardTable(t *testing.T) {
	src := shardSrcTable(t, 137)
	for _, strat := range []ShardStrategy{ShardRoundRobin, ShardHash} {
		for _, k := range []int{1, 3, 8, 200} {
			counts, err := ShardCounts(src.NumRows(), k, strat)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := ShardTable(src, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			got := sharded.RowCounts()
			sharded.Close()
			if fmt.Sprint(counts) != fmt.Sprint(got) {
				t.Fatalf("%v k=%d: ShardCounts %v != ShardTable %v", strat, k, counts, got)
			}
		}
	}
	if _, err := ShardCounts(10, 0, ShardRoundRobin); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := ShardCounts(10, 2, ShardStrategy(9)); err == nil {
		t.Fatal("unknown strategy must error")
	}
}
