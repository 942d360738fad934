package engine

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testRoot is the package-wide scratch directory TestMain owns. Tests that
// exercise file catalogs should get their directories from testCatalogDir
// so the shadow-leak sweep below sees them.
var testRoot string

// TestMain gives every file-catalog test a directory under one root and,
// after the run, fails the package if any test leaked an in-flight
// *__shadow*.heap file: the swap protocol's contract is that shadows are
// either committed (renamed away) or cleaned up (dropped on failure, swept
// on recovery) — a leaked one means a code path forgot its half of that
// contract. It also fails the package if goroutines outlive the run: every
// pass that starts workers (RunBlocks) must have waited for them.
func TestMain(m *testing.M) {
	var err error
	testRoot, err = os.MkdirTemp("", "bismarck-engine-test-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine tests: %v\n", err)
		os.Exit(1)
	}
	base := runtime.NumGoroutine()
	code := m.Run()
	if stacks := goroutineLeak(base, time.Second); stacks != "" {
		fmt.Fprintf(os.Stderr, "engine tests leaked goroutines:\n%s\n", stacks)
		if code == 0 {
			code = 1
		}
	}
	if leaks := findShadowLeaks(testRoot); len(leaks) > 0 {
		fmt.Fprintf(os.Stderr, "engine tests leaked in-flight shadow heaps:\n")
		for _, l := range leaks {
			fmt.Fprintf(os.Stderr, "  %s\n", l)
		}
		if code == 0 {
			code = 1
		}
	}
	os.RemoveAll(testRoot)
	os.Exit(code)
}

// goroutineLeak waits up to wait for the goroutine count to return to base
// and returns every goroutine's stack if it does not.
func goroutineLeak(base int, wait time.Duration) string {
	for deadline := time.Now().Add(wait); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return string(buf[:runtime.Stack(buf, true)])
		}
	}
	return ""
}

// findShadowLeaks walks root for files whose name marks an in-flight
// shadow generation.
func findShadowLeaks(root string) []string {
	var leaks []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), ShadowSuffix) && strings.HasSuffix(d.Name(), ".heap") {
			leaks = append(leaks, path)
		}
		return nil
	})
	return leaks
}

// testCatalogDir returns a fresh catalog directory under the swept root.
// Its cleanup ALSO checks for leaked shadow heaps per test, so the failure
// points at the test that leaked rather than only at the package sweep.
func testCatalogDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp(testRoot, strings.ReplaceAll(t.Name(), "/", "_")+"-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if leaks := findShadowLeaks(dir); len(leaks) > 0 {
			t.Errorf("test leaked in-flight shadow heaps: %v", leaks)
		}
		os.RemoveAll(dir)
	})
	return dir
}
