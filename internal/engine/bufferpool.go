package engine

import (
	"container/list"
	"fmt"
	"io"
	"sync"
)

// maxPoolShards bounds the number of lock shards; 16 is enough that the
// segment scans of the parallel trainers (bounded by core count) rarely
// collide on one shard's mutex.
const maxPoolShards = 16

// BufferPool is a fixed-capacity read cache of pages over a random-access
// file, with per-shard LRU replacement. The heap is append-only and writes
// go straight to the file, so the pool never holds dirty pages; Invalidate
// evicts stale entries after an append or rewrite.
//
// The pool recycles its frames: a miss refills the least recently used
// unpinned frame in place, so a scan of a table many times the pool leaves
// no per-page garbage. Get pins the frame it returns until the caller
// unpins it. Only with every frame of a shard pinned at once does a miss
// allocate an extra frame, shed again at its unpin.
//
// The pool is sharded by page id: a single mutex (and an LRU list touched
// on every hit) serializes concurrent segment scans, which is exactly the
// contention profile of the shared-memory parallel plan. Each shard owns
// 1/nth of the capacity and pages hash to shards by id, so a sequential
// scan rotates through the shards instead of convoying on one lock. Within
// a shard, a hit on the current LRU front skips the relink entirely — the
// common case for a sequential scan re-reading the page it just touched.
type BufferPool struct {
	src    io.ReaderAt
	shards []poolShard
	// verify, when set, validates a page as it is filled from src and
	// before it becomes visible to any caller — the pool's contract is that
	// a cached page is never a corrupt page. Fills that fail verification
	// are not cached. Hits pay nothing: verification cost is strictly
	// per-miss, which is what keeps the checksum off the hot epoch path.
	verify func(id int, p page) error
}

// frame is one page buffer. Everything but data's contents is guarded by
// the shard mutex; the contents are written only by the fill that took the
// frame and read only while it is pinned.
type frame struct {
	sh   *poolShard // nil for a page no pool holds (memory stores)
	id   int
	data page
	pins int
	el   *list.Element
}

type poolShard struct {
	mu    sync.Mutex
	cap   int
	pages map[int]*frame
	lru   *list.List // every frame the shard owns; front = most recent

	hits   int64
	misses int64
}

// NewBufferPool returns a pool caching at most capPages pages of src.
func NewBufferPool(src io.ReaderAt, capPages int) *BufferPool {
	if capPages < 1 {
		capPages = 1
	}
	// Keep every shard at least 4 pages deep so that a small pool does not
	// thrash on hot pages that collide modulo the shard count — a pool of 4
	// stays one LRU of 4, exactly the pre-sharding contract.
	nshards := capPages / 4
	if nshards > maxPoolShards {
		nshards = maxPoolShards
	}
	if nshards < 1 {
		nshards = 1
	}
	bp := &BufferPool{src: src, shards: make([]poolShard, nshards)}
	base, rem := capPages/nshards, capPages%nshards
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.cap = base
		if i < rem { // spread the remainder so total capacity == capPages
			sh.cap++
		}
		sh.pages = make(map[int]*frame, sh.cap)
		sh.lru = list.New()
	}
	return bp
}

func (bp *BufferPool) shard(id int) *poolShard {
	if id < 0 {
		id = -id
	}
	return &bp.shards[id%len(bp.shards)]
}

// pin marks a frame most recently used and in use by one more reader.
func (sh *poolShard) pin(f *frame) *frame {
	if sh.lru.Front() != f.el {
		sh.lru.MoveToFront(f.el)
	}
	f.pins++
	return f
}

// release drops one pin, and the extra frame of an all-pinned moment.
func (sh *poolShard) release(f *frame) {
	if f.pins--; f.pins == 0 && sh.lru.Len() > sh.cap {
		sh.unmap(f)
		sh.lru.Remove(f.el)
	}
}

// unmap stops serving f's page from f (a no-op once invalidated).
func (sh *poolShard) unmap(f *frame) {
	if sh.pages[f.id] == f {
		delete(sh.pages, f.id)
	}
}

// Get returns page id pinned in a frame, reading it from the file on a
// miss. The frame's data aliases pool memory: callers must not write to it,
// and must unpin the frame when done reading — until then the pool will not
// refill it.
func (bp *BufferPool) Get(id int) (*frame, error) {
	sh := bp.shard(id)
	sh.mu.Lock()
	if f, ok := sh.pages[id]; ok {
		sh.hits++
		sh.pin(f)
		sh.mu.Unlock()
		return f, nil
	}
	sh.misses++
	// Refill the least recently used unpinned frame; below capacity, or with
	// every frame pinned, a new one. The fill holds its frame pinned.
	var f *frame
	if sh.lru.Len() >= sh.cap {
		for el := sh.lru.Back(); el != nil && f == nil; el = el.Prev() {
			if v := el.Value.(*frame); v.pins == 0 {
				f = v
			}
		}
	}
	if f == nil {
		f = &frame{sh: sh, data: make(page, PageSize)}
		f.el = sh.lru.PushFront(f)
	}
	sh.unmap(f)
	sh.pin(f)
	sh.mu.Unlock()

	// Read outside the lock; concurrent readers may duplicate work for the
	// same page but correctness is unaffected.
	_, err := bp.src.ReadAt(f.data, int64(id)*PageSize)
	if err != nil {
		err = fmt.Errorf("engine: buffer pool read page %d: %w", id, err)
	} else if bp.verify != nil {
		err = bp.verify(id, f.data)
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	won, raced := sh.pages[id]
	if err == nil && !raced {
		f.id = id
		sh.pages[id] = f
		return f, nil
	}
	// Never cached: the frame goes back as the shard's next victim.
	sh.lru.MoveToBack(f.el)
	sh.release(f)
	if err != nil {
		return nil, err
	}
	return sh.pin(won), nil
}

// unpin releases a frame handed out by a page store.
func (f *frame) unpin() {
	if f.sh == nil {
		return
	}
	f.sh.mu.Lock()
	f.sh.release(f)
	f.sh.mu.Unlock()
}

// Invalidate drops page id from the cache; its frame is the next victim.
func (bp *BufferPool) Invalidate(id int) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.pages[id]; ok {
		delete(sh.pages, id)
		sh.lru.MoveToBack(f.el)
	}
}

// InvalidateAll empties the cache.
func (bp *BufferPool) InvalidateAll() {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		clear(sh.pages)
		sh.mu.Unlock()
	}
}

// Stats returns cumulative hit and miss counts across all shards.
func (bp *BufferPool) Stats() (hits, misses int64) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}
