package engine

import "fmt"

// This file implements horizontal table sharding — the storage half of the
// shared-nothing training mode. A ShardedTable partitions one table's rows
// into K shard tables so K epoch workers can each run the zero-allocation
// cached epoch pipeline over a private slice of the data with no shared
// mutable state at all (the scale-out counterpart of the paper's pure-UDA
// plan, whose segments still share one heap and one buffer pool). Shards
// copy nothing: each is a row index over the source's immutable slabs.

// ShardStrategy selects how rows are assigned to shards.
type ShardStrategy int

// Row-to-shard assignment strategies.
const (
	// ShardRoundRobin deals rows out cyclically: shard = row % K. Perfectly
	// balanced (counts differ by at most one) and the default.
	ShardRoundRobin ShardStrategy = iota
	// ShardHash assigns shard = mix64(row) % K, a deterministic hash of the
	// row position. Balanced in expectation; unlike round-robin, a row's
	// shard does not shift when its neighbors are filtered out.
	ShardHash
)

// String implements fmt.Stringer (the names match the shard_by knob).
func (s ShardStrategy) String() string {
	switch s {
	case ShardRoundRobin:
		return "roundrobin"
	case ShardHash:
		return "hash"
	}
	return fmt.Sprintf("ShardStrategy(%d)", int(s))
}

// mix64 is the splitmix64 finalizer: a cheap, allocation-free bijective
// mixer that turns sequential row numbers into well-distributed hash bits.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardedTable is a horizontal partitioning of one table into K in-memory
// shard tables. It is a snapshot: it does not track later source mutations
// (exactly like the statement layer's projected views, which is where
// trainers shard). Shard tables are plain *Table values, so every scan
// path — cached epochs, reusable-scratch decode, segment scans — works per
// shard unchanged. Shards never enter a catalog and have no on-disk
// presence, so they are invisible to the shadow-swap protocol and the
// recovery sweep.
type ShardedTable struct {
	Name     string
	Schema   Schema
	Strategy ShardStrategy

	shards []*Table
	rows   []int
}

// ShardCounts computes the per-shard row counts a k-way partition of n
// rows would produce, without building anything: both strategies assign by
// row index alone, so the distribution is a pure function of (n, k). SHOW
// SHARDS reports through this — materializing a large table just to print
// 2×k integers would be a multi-gigabyte diagnostic.
func ShardCounts(n, k int, strategy ShardStrategy) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: shard count must be >= 1, got %d", k)
	}
	counts := make([]int, k)
	switch strategy {
	case ShardRoundRobin:
		for i := range counts {
			counts[i] = n / k
			if i < n%k {
				counts[i]++
			}
		}
	case ShardHash:
		for row := uint64(0); row < uint64(n); row++ {
			counts[mix64(row)%uint64(k)]++
		}
	default:
		return nil, fmt.Errorf("engine: unknown shard strategy %v", strategy)
	}
	return counts, nil
}

// ShardTable partitions src's rows into k shards under the given strategy,
// by row index over its decoded-row cache (built here if it has none): the
// shards are slab-only tables sharing the source's slabs, so no row is
// copied, encoded or decoded.
func ShardTable(src *Table, k int, strategy ShardStrategy) (*ShardedTable, error) {
	rows, err := ShardCounts(src.NumRows(), k, strategy)
	if err != nil {
		return nil, err
	}
	mat, err := src.Materialize()
	if err != nil {
		return nil, err
	}
	idx := make([][]int32, k)
	for i := range idx {
		idx[i] = make([]int32, 0, rows[i])
	}
	for row := 0; row < mat.NumRows(); row++ {
		si := uint64(row) % uint64(k)
		if strategy == ShardHash {
			si = mix64(uint64(row)) % uint64(k)
		}
		idx[si] = append(idx[si], int32(row))
	}
	st := &ShardedTable{Name: src.Name, Schema: src.Schema, Strategy: strategy,
		shards: make([]*Table, k), rows: rows}
	for i := range st.shards {
		st.shards[i] = slabTable(fmt.Sprintf("%s__shard%d", src.Name, i), mat.subset(idx[i]))
	}
	return st, nil
}

// ShardChunks streams shard i's rows as chunks of encoded records for
// network shipping: fn receives consecutive batches whose summed record
// bytes stay under maxBytes (a single over-sized record still travels
// alone — the transport's frame cap is the caller's to enforce). The
// record slices are freshly encoded and alias neither heap pages nor
// slabs, so fn may retain them until it returns.
func (st *ShardedTable) ShardChunks(i int, maxBytes int, fn func(records [][]byte) error) error {
	if maxBytes <= 0 {
		return fmt.Errorf("engine: ShardChunks wants a positive byte budget, got %d", maxBytes)
	}
	var chunk [][]byte
	var size int
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		err := fn(chunk)
		chunk, size = chunk[:0], 0
		return err
	}
	err := st.shards[i].Rows().Scan(func(tp Tuple) error {
		rec := tp.Encode()
		if size+len(rec) > maxBytes {
			if err := flush(); err != nil {
				return err
			}
		}
		chunk = append(chunk, rec)
		size += len(rec)
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// NumShards returns the partition count K.
func (st *ShardedTable) NumShards() int { return len(st.shards) }

// Shard returns shard i as an ordinary table.
func (st *ShardedTable) Shard(i int) *Table { return st.shards[i] }

// RowCounts returns the per-shard row counts (a copy).
func (st *ShardedTable) RowCounts() []int {
	out := make([]int, len(st.rows))
	copy(out, st.rows)
	return out
}

// NumRows returns the total row count across all shards.
func (st *ShardedTable) NumRows() int {
	n := 0
	for _, r := range st.rows {
		n += r
	}
	return n
}

// Close releases every shard's heap.
func (st *ShardedTable) Close() error {
	var first error
	for _, t := range st.shards {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
