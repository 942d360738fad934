//go:build linux

package engine

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"bismarck/internal/vector"
)

// mapping is one entry of /proc/self/smaps.
type mapping struct {
	lo, hi     uint64
	flags      []string // VmFlags
	anonHugeKB int      // AnonHugePages
}

// readSmaps parses the process's mappings.
func readSmaps(t *testing.T) []mapping {
	t.Helper()
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	var maps []mapping
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if lo, hi, ok := strings.Cut(f[0], "-"); ok {
			a, errA := strconv.ParseUint(lo, 16, 64)
			b, errB := strconv.ParseUint(hi, 16, 64)
			if errA == nil && errB == nil {
				maps = append(maps, mapping{lo: a, hi: b})
				continue
			}
		}
		if len(maps) == 0 {
			continue
		}
		switch m := &maps[len(maps)-1]; f[0] {
		case "AnonHugePages:":
			m.anonHugeKB, _ = strconv.Atoi(f[1])
		case "VmFlags:":
			m.flags = f[1:]
		}
	}
	return maps
}

// hugeMappings counts the mappings that carry the huge page hint.
func hugeMappings(t *testing.T) int {
	n := 0
	for _, m := range readSmaps(t) {
		if slices.Contains(m.flags, "hg") {
			n++
		}
	}
	return n
}

// checkWithdrawn requires every mapping under slab s's huge page interior
// to carry nh and not hg, and logs what backs it.
func checkWithdrawn[T any](t *testing.T, what string, s []T, faults int64) {
	t.Helper()
	b := hugeInterior(s)
	if b == nil {
		t.Fatalf("%s: a %d-element slab is below the hint's floor", what, cap(s))
	}
	lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b))))
	hi := lo + uint64(len(b))
	seen, hugeKB := 0, 0
	for _, m := range readSmaps(t) {
		if m.hi <= lo || m.lo >= hi {
			continue
		}
		seen++
		hugeKB += m.anonHugeKB
		if !slices.Contains(m.flags, "nh") || slices.Contains(m.flags, "hg") {
			t.Errorf("%s: mapping %x-%x has VmFlags %v, want nh and not hg", what, m.lo, m.hi, m.flags)
		}
	}
	if seen == 0 {
		t.Fatalf("%s: no mapping holds %x-%x", what, lo, hi)
	}
	// A fragmented host may fall back to 4 KB pages, so these are logged,
	// not asserted.
	t.Logf("%s: %d MB slab, AnonHugePages %d kB over its mappings, %d minor faults in the build",
		what, len(b)>>20, hugeKB, faults)
}

// minorFaults is the process's minor page fault count.
func minorFaults(t *testing.T) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Minflt
}

// TestSlabHugePageHintWithdrawn: an ordered build advises huge pages on its
// large slabs and withdraws the hint before it returns — from a dense view
// built on several workers, from a sparse view whose narrow first row makes
// the slabs grow, and from a strict build that fails part-way — so that
// khugepaged never refills a slab's range after the runtime frees it.
func TestSlabHugePageHintWithdrawn(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", mode, err)
	}
	dense := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TDenseVec}, {Name: "label", Type: TFloat64}}
	sparse := Schema{{Name: "id", Type: TInt64}, {Name: "vec", Type: TSparseVec}, {Name: "label", Type: TFloat64}}

	// 17500 rows of 480 components, two to a page: a 64 MB dense slab over
	// 137 chunks.
	cat, tbl := buildFileTable(t, dense, 17500, func(i int) Tuple { return denseBuildRow(i, 480) })
	withWorkers(2, func() {
		before := minorFaults(t)
		m, err := tbl.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		checkWithdrawn(t, "dense", m.cols[1].f64s, minorFaults(t)-before)
	})

	// The first row holds one entry and every other row 200, so the slabs
	// reserved from the first row grow past 4 MB chunk by chunk.
	_, stbl := buildFileTable(t, sparse, 8000, func(i int) Tuple {
		n := 200
		if i == 0 {
			n = 1
		}
		v := vector.Sparse{Idx: make([]int32, n), Val: make([]float64, n)}
		for j := range n {
			v.Idx[j], v.Val[j] = int32(3*j+i%3), float64(i+j)
		}
		return Tuple{I64(int64(i)), SparseV(v), F64(float64(i % 2))}
	})
	withWorkers(2, func() {
		before := minorFaults(t)
		m, err := stbl.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		after := minorFaults(t)
		checkWithdrawn(t, "sparse indices", m.cols[1].i32s, after-before)
		checkWithdrawn(t, "sparse values", m.cols[1].f64s, after-before)
	})

	// A strict build over a page rotted late in the heap reserves the
	// slabs, then fails. The first failing build warms the heap, so the
	// runtime's own hints for its metadata are in place before counting.
	dir := cat.dir
	cat.Close()
	flipBit(t, filepath.Join(dir, "t.heap"), int64(100*buildChunkPages+3)*PageSize+100)
	_, tbl = reopenBuildTable(t, dir)
	withWorkers(2, func() {
		fail := func() {
			var ce *CorruptPageError
			if _, err := tbl.Materialize(); !errors.As(err, &ce) {
				t.Fatalf("strict build over a rotted page: %v, want a *CorruptPageError", err)
			}
		}
		fail()
		base := hugeMappings(t)
		for range 3 {
			fail()
		}
		if n := hugeMappings(t); n > base {
			t.Fatalf("failed builds left the hint on: %d hg mappings, %d before", n, base)
		}
	})
}

// TestDisablesTHP: GODEBUG's last disablethp setting decides.
func TestDisablesTHP(t *testing.T) {
	for godebug, want := range map[string]bool{
		"": false, "disablethp=1": true, "disablethp=0": false, "gctrace=1,disablethp=1": true,
		"disablethp=1,disablethp=0": false, "xdisablethp=1": false,
	} {
		if got := disablesTHP(godebug); got != want {
			t.Errorf("disablesTHP(%q) = %v, want %v", godebug, got, want)
		}
	}
}
