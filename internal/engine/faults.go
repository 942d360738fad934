package engine

import (
	"fmt"
	"sync/atomic"
)

// IOFault selects one disk fault for the fault-injecting file store. The
// taxonomy covers the failure modes a heap file meets in practice: a write
// that never reaches the device, a write the device accepts only part of, a
// write torn mid-page by power loss, a sector that stops reading back, a
// sector that reads back with flipped bits, and an fsync that fails — or
// worse, lies.
type IOFault int

const (
	// IONone injects nothing; the operation runs against the real file.
	IONone IOFault = iota
	// IOWriteError fails a page write outright: nothing reaches the file
	// and the caller sees an error.
	IOWriteError
	// IOShortWrite persists only the first half of the page and reports the
	// short count — the device accepted part of the write. The store must
	// roll the file back to the last full page, not leave a torn tail.
	IOShortWrite
	// IOTornWrite persists the first half of the page and then simulates
	// power loss (ErrInjectedCrash): no rollback runs, exactly as if the
	// process died mid-write. The torn tail is the next open's problem.
	IOTornWrite
	// IOReadError fails a page read outright.
	IOReadError
	// IOBitRot lets the read succeed but flips one bit in the returned
	// page, simulating media decay between write and read.
	IOBitRot
	// IOSyncError fails the fsync; the caller must treat the generation as
	// not durable.
	IOSyncError
	// IOSyncLie reports the fsync as successful without forcing anything —
	// a lying disk cache. Software cannot detect this at sync time; tests
	// pair it with a simulated power cut that discards the unsynced writes
	// and assert the damage is caught at the NEXT open, not absorbed.
	IOSyncLie
)

// String names the fault for logs and test tables.
func (f IOFault) String() string {
	switch f {
	case IONone:
		return "none"
	case IOWriteError:
		return "write-error"
	case IOShortWrite:
		return "short-write"
	case IOTornWrite:
		return "torn-write"
	case IOReadError:
		return "read-error"
	case IOBitRot:
		return "bit-rot"
	case IOSyncError:
		return "fsync-error"
	case IOSyncLie:
		return "fsync-lie"
	}
	return fmt.Sprintf("IOFault(%d)", int(f))
}

// IOHooks are fault-injection points inside the file store, the I/O-level
// sibling of CatalogHooks: each hook is consulted per operation and returns
// the fault to inject (IONone passes the operation through). Hooks are keyed
// by the path the store was opened with and, for page operations, the page
// id — deterministic by construction, so a test can tear exactly the third
// page of exactly one heap. Production code leaves them nil.
type IOHooks struct {
	// Write picks the fault for appending page pageID to path, once per
	// page, whether the page goes out alone or in a CopyTo run; a run's
	// write stops at its first faulted page, as a failed device write would.
	Write func(path string, pageID int) IOFault
	// Read picks the fault for reading page pageID from path. It applies to
	// buffer-pool fills and, page by page, to the extents the whole-heap
	// passes read (the open walk, the ordered build, scrub); pool hits
	// never reach the disk and therefore never reach this hook.
	Read func(path string, pageID int) IOFault
	// Sync picks the fault for fsyncing path.
	Sync func(path string) IOFault
}

// writeFault consults the Write hook (nil-safe).
func (io *IOHooks) writeFault(path string, pageID int) IOFault {
	if io == nil || io.Write == nil {
		return IONone
	}
	switch f := io.Write(path, pageID); f {
	case IOWriteError, IOShortWrite, IOTornWrite:
		return f
	}
	return IONone // not a write fault: the write runs
}

// readFault consults the Read hook (nil-safe).
func (io *IOHooks) readFault(path string, pageID int) IOFault {
	if io == nil || io.Read == nil {
		return IONone
	}
	return io.Read(path, pageID)
}

// syncFault consults the Sync hook (nil-safe).
func (io *IOHooks) syncFault(path string) IOFault {
	if io == nil || io.Sync == nil {
		return IONone
	}
	return io.Sync(path)
}

// CorruptPageError reports a page that failed integrity verification: its
// checksum did not match at read time, or it was already quarantined by an
// earlier scrub. Strict scans over a table with corrupt pages fail with it;
// degraded scans skip the page and count what was lost. Table is filled by
// the owning table; Path/Page locate the bytes for forensics.
type CorruptPageError struct {
	Table  string
	Path   string
	Page   int
	Reason string
}

// Error implements error.
func (e *CorruptPageError) Error() string {
	where := e.Table
	if where == "" {
		where = e.Path
	}
	return fmt.Sprintf("engine: corrupt page %d in %s: %s (run CHECK TABLE, or retry WITH degraded=true to skip quarantined pages)",
		e.Page, where, e.Reason)
}

// crcVerifies counts page-checksum verifications engine-wide. The bench
// guard asserts it does NOT grow across a warm (pool-hit) epoch scan:
// verification happens only when a page is filled from disk, so the cached
// hot path provably does zero checksum work.
var crcVerifies atomic.Int64

// CRCVerifyCount returns the cumulative number of page-checksum
// verifications performed since process start.
func CRCVerifyCount() int64 { return crcVerifies.Load() }

// DegradedStats reports what a degraded scan skipped. SkippedRows is a
// lower bound: a page that was already unreadable when the heap was opened
// never revealed how many records it held, so it contributes its page to
// SkippedPages but nothing to SkippedRows.
type DegradedStats struct {
	SkippedPages int
	SkippedRows  int
}

// Add accumulates another scan's losses (segmented scans merge per-segment
// stats with it).
func (d *DegradedStats) Add(o DegradedStats) {
	d.SkippedPages += o.SkippedPages
	d.SkippedRows += o.SkippedRows
}
