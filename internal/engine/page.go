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
//	[1]    format version (always 1)
//	[2:4]  slotCount  (data pages)
//	[4:6]  freeLow    (first byte after the slot directory)
//	[6:8]  freeHigh   (first byte of the record area)
//
// The slot directory grows forward from byte 8; each entry is 4 bytes
// (offset uint16, length uint16). Records grow backward from the end of the
// payload area, which stops at payloadEnd: the last 4 bytes of every page
// are a CRC32C (Castagnoli) trailer covering everything before it — header,
// slots, records, and padding, so a bit flip anywhere in the page fails
// verification. There is one format: a page without a valid trailer is a
// corrupt page, whatever its version byte says.
const (
	pageHeaderSize  = 8
	slotEntrySize   = 4
	pageTrailerSize = 4
	pageFormatV1    = 1
	payloadEnd      = PageSize - pageTrailerSize
)

// maxInlineRecord is the largest record that fits in a single data page.
const maxInlineRecord = payloadEnd - pageHeaderSize - slotEntrySize

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
		p.setFreeHigh(payloadEnd)
	}
}

func (p page) kind() uint8 { return p[0] }

// seal computes and stores the checksum trailer. Called once per page as it
// is written to a file store; in-memory stores never verify, so sealing
// their pages would be wasted work.
func (p page) seal() {
	binary.LittleEndian.PutUint32(p[payloadEnd:], crc32.Checksum(p[:payloadEnd], castagnoli))
}

// checksumOK recomputes the checksum and compares it to the trailer.
func (p page) checksumOK() bool {
	crcVerifies.Add(1)
	return binary.LittleEndian.Uint32(p[payloadEnd:]) == crc32.Checksum(p[:payloadEnd], castagnoli)
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
	if off+ln > payloadEnd || off < pageHeaderSize {
		return nil, fmt.Errorf("engine: corrupt slot %d (off=%d len=%d)", i, off, ln)
	}
	return p[off : off+ln], nil
}
