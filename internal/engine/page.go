package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// PageSize is the fixed size of every page in a heap file, matching the
// 8 KB default of PostgreSQL.
const PageSize = 8192

// Page kinds. Data pages hold slotted records; records larger than a page
// are stored on an overflow chain: one overflowStart page followed by zero
// or more overflowCont pages.
const (
	pageData uint8 = iota + 1
	pageOverflowStart
	pageOverflowCont
)

// Page header layout (8 bytes):
//
//	[0]    kind
//	[1]    format version (0 = legacy pre-checksum, 1 = checksummed)
//	[2:4]  slotCount  (data pages)
//	[4:6]  freeLow    (first byte after the slot directory)
//	[6:8]  freeHigh   (first byte of the record area)
//
// The slot directory grows forward from byte 8; each entry is 4 bytes
// (offset uint16, length uint16). Records grow backward from the end of the
// payload area. Version-1 pages reserve their last 4 bytes for a CRC32C
// (Castagnoli) trailer covering everything before it — header, slots,
// records, and padding, so a bit flip anywhere in the page (including the
// version byte itself) fails verification. Version-0 pages have no trailer;
// whole files of them are migrated to version 1 at open.
const (
	pageHeaderSize  = 8
	slotEntrySize   = 4
	pageTrailerSize = 4
	pageFormatV1    = 1
)

// maxInlineRecord is the largest record that fits in a single data page.
const maxInlineRecord = PageSize - pageHeaderSize - slotEntrySize - pageTrailerSize

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum family RocksDB and ext4 metadata use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// overflowHeaderSize is the payload header of an overflowStart page:
// a uint32 total record length.
const overflowHeaderSize = 4

type page []byte

func newPage(kind uint8) page {
	p := page(make([]byte, PageSize))
	p.init(kind)
	return p
}

// init stamps the header of an all-zero page.
func (p page) init(kind uint8) {
	p[0] = kind
	p[1] = pageFormatV1
	if kind == pageData {
		p.setSlotCount(0)
		p.setFreeLow(pageHeaderSize)
		p.setFreeHigh(PageSize - pageTrailerSize)
	}
}

func (p page) kind() uint8    { return p[0] }
func (p page) version() uint8 { return p[1] }

// payloadEnd returns the first byte past the usable payload area: v1 pages
// stop short of the checksum trailer, legacy pages run to the page end.
// Per-page dispatch keeps the scan code able to read a legacy file during
// its one-shot migration.
func (p page) payloadEnd() int {
	if p.version() == 0 {
		return PageSize
	}
	return PageSize - pageTrailerSize
}

// seal computes and stores the checksum trailer. Called once per page as it
// is written to a file store; in-memory stores never verify, so sealing
// their pages would be wasted work.
func (p page) seal() {
	if p.version() == 0 {
		return
	}
	sum := crc32.Checksum(p[:PageSize-pageTrailerSize], castagnoli)
	binary.LittleEndian.PutUint32(p[PageSize-pageTrailerSize:], sum)
}

// checksumOK recomputes the checksum and compares it to the trailer. It is
// format-unconditional on purpose: a v1 file verifies EVERY page this way,
// so rot that flips the version byte to 0 cannot talk a page out of being
// verified (the CRC covers byte 1).
func (p page) checksumOK() bool {
	crcVerifies.Add(1)
	sum := crc32.Checksum(p[:PageSize-pageTrailerSize], castagnoli)
	return binary.LittleEndian.Uint32(p[PageSize-pageTrailerSize:]) == sum
}

func (p page) slotCount() int     { return int(binary.LittleEndian.Uint16(p[2:4])) }
func (p page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p[2:4], uint16(n)) }
func (p page) freeLow() int       { return int(binary.LittleEndian.Uint16(p[4:6])) }
func (p page) setFreeLow(v int)   { binary.LittleEndian.PutUint16(p[4:6], uint16(v)) }
func (p page) setFreeHigh(v int) {
	// PageSize itself does not fit in a uint16, so freeHigh is stored as
	// PageSize-v; 0 therefore means "record area empty, starts at end".
	binary.LittleEndian.PutUint16(p[6:8], uint16(PageSize-v))
}

func (p page) getFreeHigh() int { return PageSize - int(binary.LittleEndian.Uint16(p[6:8])) }

// freeSpace returns the bytes available for one more record plus its slot.
func (p page) freeSpace() int { return p.getFreeHigh() - p.freeLow() }

// insert places rec into the page, returning false if it does not fit.
func (p page) insert(rec []byte) bool {
	need := len(rec) + slotEntrySize
	if p.freeSpace() < need {
		return false
	}
	off := p.getFreeHigh() - len(rec)
	copy(p[off:], rec)
	n := p.slotCount()
	slotPos := pageHeaderSize + n*slotEntrySize
	binary.LittleEndian.PutUint16(p[slotPos:], uint16(off))
	binary.LittleEndian.PutUint16(p[slotPos+2:], uint16(len(rec)))
	p.setSlotCount(n + 1)
	p.setFreeLow(slotPos + slotEntrySize)
	p.setFreeHigh(off)
	return true
}

// record returns the bytes of slot i (aliasing the page buffer).
func (p page) record(i int) ([]byte, error) {
	if i < 0 || i >= p.slotCount() {
		return nil, fmt.Errorf("engine: page record %d out of range (%d slots)", i, p.slotCount())
	}
	slotPos := pageHeaderSize + i*slotEntrySize
	off := int(binary.LittleEndian.Uint16(p[slotPos:]))
	ln := int(binary.LittleEndian.Uint16(p[slotPos+2:]))
	if off+ln > p.payloadEnd() || off < pageHeaderSize {
		return nil, fmt.Errorf("engine: corrupt slot %d (off=%d len=%d)", i, off, ln)
	}
	return p[off : off+ln], nil
}
