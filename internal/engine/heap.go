package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// pageStore abstracts where pages live: in memory or in a file (read through
// a buffer pool). Pages are append-only; rewrites replace the whole store
// contents (that is how ClusterBy / Shuffle work, mirroring a table rewrite
// in a real engine).
type pageStore interface {
	numPages() int
	// readPage returns page i in a pinned frame: its data is read-only and
	// stays valid until the caller unpins the frame, which it must do
	// exactly once.
	readPage(i int) (*frame, error)
	// bulk returns the page reader of a pass that reads each of a heap's
	// pages once, in order, with buffers sized for at most pages of them:
	// file stores read extents past the pool, memory stores their frames.
	bulk(pages int) pageReader
	// appendPage stores a copy of p (file stores seal it first); the
	// caller may reuse the buffer as soon as the call returns.
	appendPage(p page) error
	// reset discards all pages.
	reset() error
	// sync forces written pages to stable storage (fsync for file stores).
	sync() error
	close() error
}

// pageReader returns page i in a pinned frame, as pageStore.readPage does;
// want is how many consecutive pages from i the caller means to read, a
// read-ahead hint that readers without a buffer of their own ignore.
type pageReader func(i, want int) (*frame, error)

// memStore keeps pages in memory, in frames no pool recycles.
type memStore struct {
	pages []*frame
}

func (m *memStore) numPages() int { return len(m.pages) }

func (m *memStore) readPage(i int) (*frame, error) {
	if i < 0 || i >= len(m.pages) {
		return nil, fmt.Errorf("engine: page %d out of range (%d pages)", i, len(m.pages))
	}
	return m.pages[i], nil
}

func (m *memStore) appendPage(p page) error {
	cp := make(page, PageSize)
	copy(cp, p)
	m.pages = append(m.pages, &frame{data: cp})
	return nil
}

// bulk reads the frames themselves: memory has nothing to read ahead and
// does not rot within a process lifetime.
func (m *memStore) bulk(int) pageReader {
	return func(i, _ int) (*frame, error) { return m.readPage(i) }
}

func (m *memStore) reset() error {
	m.pages = nil
	return nil
}

func (m *memStore) sync() error { return nil }

func (m *memStore) close() error { return nil }

// fileStore keeps pages in an OS file, read through a BufferPool that
// verifies every page it fills. All reads and writes pass through the
// IOHooks fault layer; production stores carry nil hooks and pay only a
// pair of nil checks.
type fileStore struct {
	f    *os.File
	path string
	n    int
	pool *BufferPool
	io   *IOHooks
}

// openFileStore opens (or creates) the page file at path. With repairTail,
// a non-page-aligned file — the torn tail of a crash mid-append — is
// truncated back to the last full page instead of refusing to open; only
// catalog recovery opts in, and only for tables outside model pairs.
func openFileStore(path string, poolPages int, io *IOHooks, repairTail bool) (*fileStore, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	var repaired int64
	if rem := size % PageSize; rem != 0 {
		if !repairTail {
			f.Close()
			return nil, 0, fmt.Errorf("engine: %s size %d not page aligned", path, size)
		}
		size -= rem
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
		repaired = rem
	}
	fs := &fileStore{f: f, path: path, n: int(size / PageSize), io: io}
	fs.pool = NewBufferPool(fs, poolPages)
	fs.pool.verify = fs.verifyPage
	return fs, repaired, nil
}

// ReadAt implements io.ReaderAt for the buffer pool, applying read faults.
// The pool only ever reads whole aligned pages, so off/PageSize identifies
// the page an injected fault lands on.
func (fs *fileStore) ReadAt(b []byte, off int64) (int, error) {
	pageID := int(off / PageSize)
	fault := fs.io.readFault(fs.path, pageID)
	if fault == IOReadError {
		return 0, fs.injectedReadError(pageID)
	}
	n, err := fs.f.ReadAt(b, off)
	if fault == IOBitRot && err == nil && n > 0 {
		rot(b[:n], pageID)
	}
	return n, err
}

func (fs *fileStore) injectedReadError(pageID int) error {
	return fmt.Errorf("engine: %s: injected read error at page %d", fs.path, pageID)
}

// rot flips the one bit IOBitRot flips in the bytes b read of page pageID.
// Position and bit derive from the page id, so a test can predict exactly
// what rots.
func rot(b []byte, pageID int) {
	pos := (pageID * 2654435761) % len(b)
	if pos < 0 {
		pos = -pos
	}
	b[pos] ^= 1 << (pageID & 7)
}

// readExtent reads pages [from, from+n) into buf with one ReadAt, past the
// buffer pool, then checks each page in order as a pool fill checks one:
// the Read hook's fault first, then the checksum. errs[k] is page from+k's
// error; a page that fails is also dropped from the pool, so a cached copy
// cannot outlive what the disk now holds. It returns how many pages it
// covers: a ReadAt that fails keeps the whole pages it read before the
// failure, and when there are none, fails page from alone and quarantines
// nothing, as a failed pool fill does.
func (fs *fileStore) readExtent(from, n int, buf []byte, errs []error) int {
	got, err := fs.f.ReadAt(buf[:n*PageSize], int64(from)*PageSize)
	if err != nil {
		if n = got / PageSize; n == 0 {
			errs[0] = fmt.Errorf("engine: read page %d of %s: %w", from, fs.path, err)
			return 1
		}
	}
	for k := range n {
		id, p := from+k, page(buf[k*PageSize:(k+1)*PageSize])
		switch fs.io.readFault(fs.path, id) {
		case IOReadError:
			errs[k] = fs.injectedReadError(id)
		case IOBitRot:
			rot(p, id)
			fallthrough
		default:
			errs[k] = fs.verifyPage(id, p)
		}
		if errs[k] != nil {
			fs.pool.Invalidate(id)
		}
	}
	return n
}

// extent is a pass's own read buffer over a file store: up to
// buildChunkPages pages read by one readExtent. Its frames belong to no
// pool, so unpinning one is a no-op; each holds its page until the next
// extent is read.
type extent struct {
	fs      *fileStore
	buf     []byte
	errs    []error
	frames  []frame
	from, n int // the pages held: [from, from+n)
}

// bulk gives the pass a buffer of min(pages, buildChunkPages) pages.
func (fs *fileStore) bulk(pages int) pageReader {
	n := max(1, min(pages, buildChunkPages))
	e := &extent{fs: fs, buf: make([]byte, n*PageSize), errs: make([]error, n), frames: make([]frame, n)}
	for k := range e.frames {
		e.frames[k].data = page(e.buf[k*PageSize : (k+1)*PageSize])
	}
	return e.read
}

// read returns page i, first reading the extent of up to want pages from i
// when the one held does not cover it.
func (e *extent) read(i, want int) (*frame, error) {
	if i < e.from || i >= e.from+e.n {
		e.from = i
		e.n = e.fs.readExtent(i, max(1, min(want, len(e.frames), e.fs.n-i)), e.buf, e.errs)
	}
	k := i - e.from
	if err := e.errs[k]; err != nil {
		return nil, err
	}
	return &e.frames[k], nil
}

// verifyPage is the pool's fill-time verifier: a page is checksummed once
// when it comes off the disk and never again while cached.
func (fs *fileStore) verifyPage(id int, p page) error {
	if !p.checksumOK() {
		return &CorruptPageError{Path: fs.path, Page: id, Reason: "checksum mismatch"}
	}
	return nil
}

func (fs *fileStore) numPages() int { return fs.n }

func (fs *fileStore) readPage(i int) (*frame, error) {
	if i < 0 || i >= fs.n {
		return nil, fmt.Errorf("engine: page %d out of range (%d pages)", i, fs.n)
	}
	return fs.pool.Get(i)
}

func (fs *fileStore) appendPage(p page) error {
	p.seal()
	_, err := fs.appendRun(p)
	return err
}

// appendRun appends sealed pages, a whole number of them, with one write,
// and returns how many landed. The Write hook is consulted page by page;
// the first page it faults ends the write: the pages before it land whole,
// and it lands as the fault has it.
func (fs *fileStore) appendRun(pages []byte) (int, error) {
	k, fault := 0, IONone
	for ; k < len(pages)/PageSize; k++ {
		if fault = fs.io.writeFault(fs.path, fs.n+k); fault != IONone {
			break
		}
	}
	off := int64(fs.n) * PageSize
	n, err := fs.f.WriteAt(pages[:k*PageSize], off)
	if err != nil || fault == IONone {
		return fs.landed(n, len(pages), err)
	}
	p, poff := pages[k*PageSize:(k+1)*PageSize], off+int64(k)*PageSize
	switch fault {
	case IOWriteError:
		err = fmt.Errorf("engine: %s: injected write error at page %d", fs.path, fs.n+k)
	case IOShortWrite:
		// The device accepted only half the page but the syscall reported
		// the short count; landed must catch it.
		var m int
		m, err = fs.f.WriteAt(p[:PageSize/2], poff)
		n += m
	case IOTornWrite:
		// Power loss mid-write: the pages before it land, half of it
		// reaches the platter and the "process" dies. No rollback runs — a
		// dying process runs none — so the torn tail is the next open's.
		_, _ = fs.f.WriteAt(p[:PageSize/2], poff)
		k, _ = fs.landed(n, n, nil)
		return k, fmt.Errorf("engine: %s: torn write at page %d: %w", fs.path, fs.n, ErrInjectedCrash)
	}
	return fs.landed(n, len(pages), err)
}

// landed completes an append at the end of the file that wrote n of want
// bytes, and returns how many whole pages it counted. A failed or short
// write rolls the file back to the last whole page: fs.n stays truthful,
// the next append lands on a clean page boundary, and no torn tail is left
// for recovery to condemn.
func (fs *fileStore) landed(n, want int, err error) (int, error) {
	if err == nil && n < want {
		err = fmt.Errorf("engine: %s: short write at page %d (%d of %d bytes)", fs.path, fs.n+n/PageSize, n%PageSize, PageSize)
	}
	m := min(n, want) / PageSize
	if err != nil {
		if terr := fs.f.Truncate(int64(fs.n+m) * PageSize); terr != nil {
			return 0, fmt.Errorf("%w (rollback truncate failed: %v)", err, terr)
		}
	}
	for range m {
		fs.pool.Invalidate(fs.n)
		fs.n++
	}
	return m, err
}

func (fs *fileStore) reset() error {
	if err := fs.f.Truncate(0); err != nil {
		return err
	}
	fs.n = 0
	fs.pool.InvalidateAll()
	return nil
}

func (fs *fileStore) sync() error {
	switch fs.io.syncFault(fs.path) {
	case IOSyncError:
		return fmt.Errorf("engine: %s: injected fsync failure", fs.path)
	case IOSyncLie:
		// The lying cache: report durable without forcing anything. Tests
		// pair this with a simulated power cut that discards the writes.
		return nil
	}
	return fs.f.Sync()
}

func (fs *fileStore) close() error { return fs.f.Close() }

// Heap is an append-only heap file of variable-length records stored on
// slotted pages, with overflow chains for records larger than a page.
// File-backed heaps verify every page as it is read off disk and keep a
// quarantine map of pages that failed: strict scans fail on them with a
// *CorruptPageError, degraded scans skip them and count the loss.
type Heap struct {
	st   pageStore
	cur  page // tail data page not yet flushed; nil or empty if none
	nrec int

	// table is the owning table's name, stamped into CorruptPageError so
	// statement-layer callers see which relation is sick ("" for raw heaps).
	table string

	// mu guards the corruption map and the per-page record counts: scans
	// read both concurrently while another scan or scrub may be
	// quarantining a freshly rotted page.
	mu   sync.RWMutex
	quar map[int]string
	// pageRecs tracks how many records BEGIN on each flushed page (data
	// pages: slot count; overflow starts: 1; continuations: 0; -1 when the
	// page was already unreadable at open). It is what lets a degraded
	// read report how many rows a quarantined page cost.
	pageRecs []int
}

// NewMemHeap returns a heap whose pages live in memory.
func NewMemHeap() *Heap { return &Heap{st: &memStore{}} }

// DefaultPoolPages is the default buffer pool capacity for file-backed
// heaps: 1024 pages = 8 MB.
const DefaultPoolPages = 1024

// openFileHeap opens (or creates) a file-backed heap at path. Every page
// is verified at open; pages that fail — a file of unsealed pages included
// — are quarantined rather than failing the open, and NumRecords counts
// what is actually readable. It also reports how many bytes of torn tail
// it truncated (repairTail only).
func openFileHeap(path string, poolPages int, io *IOHooks, repairTail bool) (*Heap, int64, error) {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	fs, repaired, err := openFileStore(path, poolPages, io, repairTail)
	if err != nil {
		return nil, 0, err
	}
	h := &Heap{st: fs, quar: map[int]string{}}
	if err := h.buildIndex(); err != nil {
		fs.close()
		return nil, 0, err
	}
	return h, repaired, nil
}

// buildIndex walks every flushed page once at open: the walk itself
// verifies each page (extents are checked page by page as they arrive),
// quarantines the ones that fail, records per-page record counts for
// degraded-read accounting, and counts the readable records so NumRecords
// reflects what a scan can actually yield. The reads run as blocks of
// buildChunkPages pages on Workers goroutines, one extent a block into a
// buffer each worker keeps for the walk, recording each page's header
// facts; the walk over those facts is sequential and reads nothing.
func (h *Heap) buildIndex() error {
	np := h.st.numPages()
	facts := make([]pageFacts, np)
	readers := make([]pageReader, Workers())
	err := RunBlocks(len(readers), (np+buildChunkPages-1)/buildChunkPages, func(w, b int) error {
		if readers[w] == nil {
			readers[w] = h.st.bulk(np)
		}
		end := min((b+1)*buildChunkPages, np)
		for i := b * buildChunkPages; i < end; i++ {
			p, err := readers[w](i, end-i)
			if err != nil {
				facts[i] = pageFacts{err: err}
				continue
			}
			facts[i] = pageFacts{kind: p.data.kind(), slots: p.data.slotCount()}
			if facts[i].kind == pageOverflowStart {
				facts[i].total = int(binary.LittleEndian.Uint32(p.data[pageHeaderSize:]))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	h.pageRecs = make([]int, np)
	n := 0
	for i := 0; i < np; i++ {
		f := facts[i]
		if f.err != nil {
			h.quarantine(i, openReason(f.err))
			h.pageRecs[i] = -1
			continue
		}
		switch f.kind {
		case pageData:
			h.pageRecs[i] = f.slots
			n += f.slots
		case pageOverflowStart:
			// A chain holds exactly one record; if any of its pages is bad
			// the start page is quarantined so scans skip (or fail on) the
			// whole record in one place.
			h.pageRecs[i] = 1
			bad := ""
			got := min(f.total, payloadEnd-pageHeaderSize-overflowHeaderSize)
			j := i + 1
			for got < f.total {
				if j >= np {
					bad = "truncated overflow chain"
					break
				}
				if cf := facts[j]; cf.err != nil {
					h.quarantine(j, openReason(cf.err))
					h.pageRecs[j] = 0
					bad = fmt.Sprintf("overflow continuation page %d unreadable", j)
					j++
					break
				} else if cf.kind != pageOverflowCont {
					bad = fmt.Sprintf("broken overflow chain (page %d is not a continuation)", j)
					break
				}
				h.pageRecs[j] = 0
				got += min(f.total-got, payloadEnd-pageHeaderSize)
				j++
			}
			if bad != "" {
				h.quarantine(i, bad)
			} else {
				n++
			}
			i = j - 1
		case pageOverflowCont:
			// Not owned by any readable chain start (its start page was
			// quarantined, or truncation ate the start). Scans skip it.
			h.pageRecs[i] = 0
		default:
			h.quarantine(i, fmt.Sprintf("unknown page kind %d", f.kind))
			h.pageRecs[i] = -1
		}
	}
	h.nrec = n
	return nil
}

// pageFacts is what the open walk needs of one page: its header facts, or
// the error reading it.
type pageFacts struct {
	err   error
	kind  uint8
	slots int // data pages: records on the page
	total int // overflow starts: the record's length
}

// openReason extracts the human reason from an open-time page failure.
func openReason(err error) string {
	var ce *CorruptPageError
	if errors.As(err, &ce) {
		return ce.Reason
	}
	return err.Error()
}

// filePath returns the backing file path ("" for in-memory heaps).
func (h *Heap) filePath() string {
	if fs, ok := h.st.(*fileStore); ok {
		return fs.path
	}
	return ""
}

// badPage reports whether page i is quarantined.
func (h *Heap) badPage(i int) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r, ok := h.quar[i]
	return r, ok
}

// quarantine marks page i corrupt; reports whether it was newly marked.
func (h *Heap) quarantine(i int, reason string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.quar == nil {
		h.quar = map[int]string{}
	}
	if _, ok := h.quar[i]; ok {
		return false
	}
	h.quar[i] = reason
	return true
}

// recsOn returns how many records begin on page i (-1 unknown).
func (h *Heap) recsOn(i int) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if i < 0 || i >= len(h.pageRecs) {
		return -1
	}
	return h.pageRecs[i]
}

// QuarantinedPages returns a copy of the corruption map (nil when clean).
func (h *Heap) QuarantinedPages() map[int]string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.quar) == 0 {
		return nil
	}
	out := make(map[int]string, len(h.quar))
	for k, v := range h.quar {
		out[k] = v
	}
	return out
}

// pageErr builds the typed error for a quarantined or failing page.
func (h *Heap) pageErr(i int, reason string) error {
	return &CorruptPageError{Table: h.table, Path: h.filePath(), Page: i, Reason: reason}
}

// ScrubReport summarizes one integrity pass over a heap.
type ScrubReport struct {
	Table  string
	Pages  int            // flushed pages checked
	NewBad []int          // pages newly quarantined by this pass
	Bad    map[int]string // all quarantined pages after the pass
}

// Clean reports a fully healthy heap.
func (r ScrubReport) Clean() bool { return len(r.Bad) == 0 }

// Scrub re-reads every flushed page fresh from the backing store, in
// extents past the pool (the question is what the DISK holds), and
// quarantines pages whose checksum fails or that no longer read back; a
// bad page is also dropped from the pool. Quarantine is sticky: a page
// stays quarantined until the heap is rewritten, so scans degrade
// deterministically instead of flickering with the pool's eviction pattern.
func (h *Heap) Scrub() ScrubReport {
	np := h.st.numPages()
	rep := ScrubReport{Pages: np}
	read := h.st.bulk(np)
	for i := 0; i < np; i++ {
		if _, err := read(i, np-i); err != nil && h.quarantine(i, openReason(err)) {
			rep.NewBad = append(rep.NewBad, i)
		}
	}
	rep.Bad = h.QuarantinedPages()
	return rep
}

// NumRecords returns the number of readable records appended to the heap.
func (h *Heap) NumRecords() int { return h.nrec }

// NumPages returns the number of flushed pages (excluding the in-memory
// tail page, if any).
func (h *Heap) NumPages() int { return h.st.numPages() }

// Append adds one record to the heap.
func (h *Heap) Append(rec []byte) error {
	if len(rec) > maxInlineRecord {
		if err := h.flushCur(); err != nil {
			return err
		}
		if err := h.appendOverflow(rec); err != nil {
			return err
		}
		h.nrec++
		return nil
	}
	if h.cur == nil {
		h.cur = newPage(pageData)
	}
	if !h.cur.insert(rec) {
		if err := h.flushCur(); err != nil {
			return err
		}
		if !h.cur.insert(rec) {
			return fmt.Errorf("engine: record of %d bytes does not fit in fresh page", len(rec))
		}
	}
	h.nrec++
	return nil
}

// appendTracked appends a flushed page and records how many records begin
// on it, keeping the degraded-read accounting in step with the file.
func (h *Heap) appendTracked(p page, recs int) error {
	if err := h.st.appendPage(p); err != nil {
		return err
	}
	h.mu.Lock()
	h.pageRecs = append(h.pageRecs, recs)
	h.mu.Unlock()
	return nil
}

func (h *Heap) flushCur() error {
	if h.cur == nil || h.cur.slotCount() == 0 {
		return nil
	}
	if err := h.appendTracked(h.cur, h.cur.slotCount()); err != nil {
		return err
	}
	// Both stores are done with the buffer once appendPage returns (the
	// memory store copied it, the file store wrote it): it is the next tail.
	clear(h.cur)
	h.cur.init(pageData)
	return nil
}

// Flush seals the in-memory tail page so all records live on flushed pages.
// Parallel page-range scans require a flushed heap.
func (h *Heap) Flush() error { return h.flushCur() }

// Sync flushes the tail page and forces every written page to stable
// storage. The shadow-generation swap calls it before its commit point: a
// generation is only publishable once its heap would survive a crash.
func (h *Heap) Sync() error {
	if err := h.flushCur(); err != nil {
		return err
	}
	return h.st.sync()
}

// Abandon releases the underlying store WITHOUT flushing the tail page —
// the crash-simulation teardown for fault-injection tests: a SIGKILLed
// process never gets to write its in-memory tail, and neither must the
// simulated one.
func (h *Heap) Abandon() error { return h.st.close() }

func (h *Heap) appendOverflow(rec []byte) error {
	// First page: kind, then uint32 total length, then data.
	first := newPage(pageOverflowStart)
	binary.LittleEndian.PutUint32(first[pageHeaderSize:], uint32(len(rec)))
	n := copy(first[pageHeaderSize+overflowHeaderSize:payloadEnd], rec)
	if err := h.appendTracked(first, 1); err != nil {
		return err
	}
	rec = rec[n:]
	for len(rec) > 0 {
		cont := newPage(pageOverflowCont)
		n = copy(cont[pageHeaderSize:payloadEnd], rec)
		if err := h.appendTracked(cont, 0); err != nil {
			return err
		}
		rec = rec[n:]
	}
	return nil
}

// chainPages returns how many pages an overflow chain of `total` payload
// bytes occupies — what lets a degraded scan step over a chain it cannot
// read.
func chainPages(total int) int {
	firstCap := payloadEnd - pageHeaderSize - overflowHeaderSize
	if total <= firstCap {
		return 1
	}
	contCap := payloadEnd - pageHeaderSize
	return 1 + (total-firstCap+contCap-1)/contCap
}

// Scan visits every record in storage order. The record slice passed to fn
// is only valid during the call. Scans fail with a *CorruptPageError on a
// quarantined or freshly corrupt page.
func (h *Heap) Scan(fn func(rec []byte) error) error {
	_, err := h.scanRange(0, h.st.numPages(), false, h.readPage, fn)
	return err
}

// ScanPages visits the records whose storage begins in pages [from, to).
// Overflow chains that start in the range are followed past `to`; overflow
// continuation pages at the start of the range are skipped (they belong to
// a chain owned by an earlier range). If to == NumPages, the in-memory tail
// page is scanned as well.
func (h *Heap) ScanPages(from, to int, fn func(rec []byte) error) error {
	_, err := h.scanRange(from, to, false, h.readPage, fn)
	return err
}

// readPage is the page reader of tuple scans: through the store, and so
// through a file store's buffer pool.
func (h *Heap) readPage(i, _ int) (*frame, error) { return h.st.readPage(i) }

// scanned is what a page-range scan did: what it skipped, the first page it
// did not consume (an overflow chain can carry it past the range's end), and
// the first page it did more with than skip as a continuation of a chain
// started before the range.
type scanned struct {
	DegradedStats
	next, lead int
}

// scanRange visits the records of pages [from, to) as ScanPages does,
// reading each page through read: a chain that runs past `to` is read on
// through it as well.
func (h *Heap) scanRange(from, to int, degraded bool, read pageReader, fn func(rec []byte) error) (scanned, error) {
	s := scanned{lead: to}
	stats := &s.DegradedStats
	np := h.st.numPages()
	if from < 0 || to > np || from > to {
		return s, fmt.Errorf("engine: ScanPages range [%d,%d) out of [0,%d]", from, to, np)
	}
	// skipPage accounts one unreadable page in degraded mode.
	skipPage := func(i int) {
		stats.SkippedPages++
		if n := h.recsOn(i); n > 0 {
			stats.SkippedRows += n
		}
	}
	i := from
	for ; i < to; i++ {
		if reason, bad := h.badPage(i); bad {
			s.lead = min(s.lead, i)
			if !degraded {
				return s, h.pageErr(i, reason)
			}
			skipPage(i)
			continue
		}
		p, err := read(i, to-i)
		if err != nil {
			s.lead = min(s.lead, i)
			if err = h.readFailed(i, err); !degraded {
				return s, err
			}
			skipPage(i)
			continue
		}
		// fn sees record bytes aliasing the pinned page; an overflow start
		// is copied out and unpinned before its continuations are read, so
		// a scan never holds more than the one frame it is reading.
		kind := p.data.kind()
		if kind != pageOverflowCont {
			s.lead = min(s.lead, i)
		}
		if kind == pageData {
			if err := scanData(p, degraded, stats, fn); err != nil {
				return s, err
			}
			continue
		}
		var rec []byte
		total, end := 0, i+1
		if kind == pageOverflowStart {
			total = int(binary.LittleEndian.Uint32(p.data[pageHeaderSize:]))
			take := min(total, payloadEnd-pageHeaderSize-overflowHeaderSize)
			rec = make([]byte, 0, total)
			rec = append(rec, p.data[pageHeaderSize+overflowHeaderSize:pageHeaderSize+overflowHeaderSize+take]...)
			end = min(i+chainPages(total), np)
		}
		p.unpin()
		switch kind {
		case pageOverflowStart:
			j := i + 1
			var chainErr error
			for len(rec) < total {
				if j >= np {
					chainErr = fmt.Errorf("engine: truncated overflow chain at page %d", i)
					break
				}
				if reason, bad := h.badPage(j); bad {
					chainErr = h.pageErr(j, reason)
					break
				}
				cp, err := read(j, end-j)
				if err != nil {
					chainErr = h.readFailed(j, err)
					break
				}
				if cp.data.kind() != pageOverflowCont {
					cp.unpin()
					chainErr = fmt.Errorf("engine: broken overflow chain at page %d", j)
					break
				}
				take := min(total-len(rec), payloadEnd-pageHeaderSize)
				rec = append(rec, cp.data[pageHeaderSize:pageHeaderSize+take]...)
				cp.unpin()
				j++
			}
			if chainErr != nil {
				if !degraded {
					return s, chainErr
				}
				// Skip the whole chain — it holds exactly one record — and
				// step arithmetically over its remaining pages.
				stats.SkippedPages += end - i
				stats.SkippedRows++
				i = end - 1
				continue
			}
			if err := fn(rec); err != nil {
				return s, err
			}
			// Pages i+1..j-1 were consumed as part of this chain; skip them
			// (the loop exits naturally if the chain extended past `to`).
			i = j - 1
		case pageOverflowCont:
			// Owned by a chain that started before `from`; skip.
		default:
			if !degraded {
				return s, fmt.Errorf("engine: unknown page kind %d at page %d", kind, i)
			}
			skipPage(i)
		}
	}
	s.next = i
	if to == np && h.cur != nil {
		return s, scanData(&frame{data: h.cur}, false, stats, fn)
	}
	return s, nil
}

// readFailed classifies a failed page read. Fresh corruption (rot since
// open) is quarantined so every later scan skips or fails this page
// deterministically; plain I/O errors are not — a transient error must stay
// retryable.
func (h *Heap) readFailed(i int, err error) error {
	var ce *CorruptPageError
	if errors.As(err, &ce) {
		h.quarantine(i, ce.Reason)
		if ce.Table == "" {
			ce.Table = h.table
		}
	}
	return err
}

// scanData visits every record of one data page and unpins it — also when
// fn panics (RunBlocks and Contain recover task panics), or the pool is a
// frame short for good. A degraded scan skips and counts an unreadable slot.
func scanData(p *frame, degraded bool, stats *DegradedStats, fn func(rec []byte) error) error {
	defer p.unpin()
	for s := 0; s < p.data.slotCount(); s++ {
		rec, err := p.data.record(s)
		if err != nil {
			if !degraded {
				return err
			}
			stats.SkippedRows++
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// emptyFile reports whether h is a file heap that holds no record yet.
func (h *Heap) emptyFile() bool {
	_, ok := h.st.(*fileStore)
	return ok && h.st.numPages() == 0 && (h.cur == nil || h.cur.slotCount() == 0)
}

// copyPages appends every record of src to h, an empty file heap, by
// writing src's flushed pages as they are: h keeps src's page layout, and
// its per-page counts are src's. When src has no tail page, its last data
// page becomes h's, so later appends fill it, as after a record-by-record
// copy. The pages go out sealed, in runs of up to buildChunkPages pages,
// one write a run, double-buffered: one goroutine reads, copies and seals
// run k+1 (sealRuns) while another writes run k (writeRuns). Of a run that
// fails, the pages that landed count, and a failed data page becomes the
// tail page, as its records would have stayed in Append's tail; no later
// run is written. src's tail records are appended one by one. src must
// have no quarantined page.
func (h *Heap) copyPages(src *Heap) error {
	np := src.NumPages()
	tail := -1 // src's page that becomes h's tail page
	if src.cur == nil || src.cur.slotCount() == 0 {
		tail = np - 1
	}
	// Two runs circulate: the one being filled and the one being written.
	full, free, stop := make(chan *copyRun, 2), make(chan *copyRun, 2), make(chan struct{})
	for range 2 {
		free <- &copyRun{buf: make([]byte, min(np, buildChunkPages)*PageSize),
			recs: make([]int, 0, buildChunkPages), done: make([]int, 1, buildChunkPages+1)}
	}
	var last page // src's last data page, when it becomes h's tail page
	// The writer is block 0: when both fail, its error is the one a
	// sequential copy meets first, as every run it writes precedes the
	// page the reader failed on.
	err := RunBlocks(2, 2, func(_, b int) error {
		if b == 0 {
			defer close(stop)
			return h.writeRuns(full, free)
		}
		defer close(full)
		var err error
		last, err = src.sealRuns(tail, free, full, stop)
		return err
	})
	if err != nil {
		return err
	}
	if last != nil {
		h.keepTail(last)
	}
	if src.cur == nil {
		return nil
	}
	return scanData(&frame{data: src.cur}, false, nil, h.Append)
}

// copyRun is one run of copyPages: up to buildChunkPages sealed pages, the
// records that begin on each, and done[k], the records its first k pages
// complete.
type copyRun struct {
	buf        []byte
	recs, done []int
}

// sealRuns reads h's pages in order, copies each into a run taken from
// free and seals it, and hands every filled run, and the last one partly
// filled, to full. It stops at page tail, when that is a data page, and
// returns it unsealed: it lies past the run it was read into, which is
// handed on but not taken again. It stops early, with no error, once stop
// is closed.
func (h *Heap) sealRuns(tail int, free <-chan *copyRun, full chan<- *copyRun, stop <-chan struct{}) (page, error) {
	np := h.NumPages()
	h.mu.RLock()
	srcRecs := h.pageRecs
	h.mu.RUnlock()
	read := h.st.bulk(np)
	var r *copyRun
	take := func() bool {
		select {
		case r = <-free:
			return true
		case <-stop:
			return false
		}
	}
	if !take() {
		return nil, nil
	}
	chainEnd := 0 // the page after the last overflow chain read
	var last page
	for i := 0; i < np; i++ {
		p, err := read(i, np-i)
		if err != nil {
			return nil, h.readFailed(i, err)
		}
		k := len(r.recs)
		q := page(r.buf[k*PageSize : (k+1)*PageSize])
		copy(q, p.data)
		p.unpin()
		if i == tail && q.kind() == pageData {
			last = q
			break
		}
		q.seal()
		fin := 0 // records q completes
		switch q.kind() {
		case pageData:
			fin = srcRecs[i]
		case pageOverflowStart:
			chainEnd = i + chainPages(int(binary.LittleEndian.Uint32(q[pageHeaderSize:])))
		}
		if q.kind() != pageData && i == chainEnd-1 {
			fin = 1
		}
		r.recs, r.done = append(r.recs, srcRecs[i]), append(r.done, r.done[k]+fin)
		if len(r.recs)*PageSize == len(r.buf) {
			full <- r
			if !take() {
				return nil, nil
			}
		}
	}
	if len(r.recs) > 0 {
		full <- r
	}
	return last, nil
}

// writeRuns appends each run from full to h, an empty file heap, with one
// write, and returns it to free; it stops at the first run that fails. The
// Write hook is consulted page by page (appendRun): the pages before a
// faulted one land and are accounted, and a failed data page becomes the
// tail page.
func (h *Heap) writeRuns(full <-chan *copyRun, free chan<- *copyRun) error {
	fs := h.st.(*fileStore)
	for r := range full {
		m, err := fs.appendRun(r.buf[:len(r.recs)*PageSize])
		h.tracked(r.recs[:m], r.done[m])
		if q := page(r.buf[m*PageSize:]); err != nil && m < len(r.recs) && q.kind() == pageData {
			h.keepTail(q[:PageSize])
		}
		if err != nil {
			return err
		}
		r.recs, r.done = r.recs[:0], r.done[:1]
		free <- r
	}
	return nil
}

// tracked accounts flushed pages appended behind appendTracked's back: the
// records that begin on each, and the records they complete.
func (h *Heap) tracked(recs []int, done int) {
	h.mu.Lock()
	h.pageRecs = append(h.pageRecs, recs...)
	h.mu.Unlock()
	h.nrec += done
}

// keepTail makes a copy of data page p the tail page.
func (h *Heap) keepTail(p page) {
	if h.cur == nil {
		h.cur = make(page, PageSize)
	}
	copy(h.cur, p)
	h.nrec += p.slotCount()
}

// Rewrite replaces the heap contents with the given records, in order. A
// rewrite clears the quarantine: every byte of the old generation is gone.
func (h *Heap) Rewrite(records [][]byte) error {
	if err := h.st.reset(); err != nil {
		return err
	}
	h.cur = nil
	h.nrec = 0
	h.mu.Lock()
	h.quar = map[int]string{}
	h.pageRecs = h.pageRecs[:0]
	h.mu.Unlock()
	for _, r := range records {
		if err := h.Append(r); err != nil {
			return err
		}
	}
	return h.Flush()
}

// Close releases the underlying store.
func (h *Heap) Close() error {
	if err := h.flushCur(); err != nil {
		return err
	}
	return h.st.close()
}
