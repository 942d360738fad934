//go:build linux

package engine

import (
	"os"
	"slices"
	"strings"
	"syscall"
	"unsafe"
)

// This file backs a build's large slabs with transparent huge pages. A cold
// build otherwise faults its slabs in 4 KB at a time, and a shuffled epoch
// then reaches those pages in random order; Go advises huge pages only for
// its own GC metadata, never for heap spans. The hint is set on a slab
// before anything is written into it and withdrawn before the build
// returns: the pages already mapped stay huge, but once Go's scavenger
// frees part of a range, khugepaged may not refill it to 2 MB. DESIGN.md §3
// "Slab memory" has the policy.

// hugePage is the transparent huge page size of x86-64 and arm64 Linux
// with 4 KB base pages.
const hugePage = 2 << 20

// hugeFloor is the smallest slab that takes the hint: it always holds a
// whole aligned huge page, and a smaller one would gain at most one.
const hugeFloor = 2 * hugePage

// thpOff holds the hint back under GODEBUG=disablethp=1, the runtime's own
// opt-out from huge pages for its heap.
var thpOff = disablesTHP(os.Getenv("GODEBUG"))

// disablesTHP reports whether a GODEBUG value sets disablethp=1; a later
// setting overrides an earlier one, as it does for the runtime.
func disablesTHP(godebug string) bool {
	off := false
	for _, kv := range strings.Split(godebug, ",") {
		if v, ok := strings.CutPrefix(kv, "disablethp="); ok {
			off = v == "1"
		}
	}
	return off
}

// hugeRanges are the slab ranges one build advised, each the 2 MB-aligned
// interior of a slab's backing array.
type hugeRanges [][]byte

// adviseHuge advises huge pages on the aligned interior of s's backing
// array when s spans at least hugeFloor bytes, and records the range.
// Madvise's error is ignored: the hint only changes how the pages are
// backed, and a kernel without THP keeps 4 KB pages.
func adviseHuge[T any](r *hugeRanges, s []T) {
	if b := hugeInterior(s); b != nil && !thpOff {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
		*r = append(*r, b)
	}
}

// dropHuge withdraws the hint from s, a slab the build replaced with a
// larger one, so the range does not outlive the slab in the list.
func dropHuge[T any](r *hugeRanges, s []T) {
	b := hugeInterior(s)
	if b == nil {
		return
	}
	if i := slices.IndexFunc(*r, func(a []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }); i >= 0 {
		_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
		*r = slices.Delete(*r, i, i+1)
	}
}

// withdraw advises MADV_NOHUGEPAGE on every recorded range and forgets
// them.
func (r *hugeRanges) withdraw() {
	for _, b := range *r {
		_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	}
	*r = nil
}

// hugeInterior returns the whole huge pages inside s's backing array, or
// nil when s spans fewer than hugeFloor bytes.
func hugeInterior[T any](s []T) []byte {
	n := cap(s) * int(unsafe.Sizeof(*new(T)))
	if n < hugeFloor {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s[:cap(s)]))), n)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := int(-addr & (hugePage - 1))
	hi := lo + (n-lo)&^(hugePage-1)
	return b[lo:hi:hi]
}
