package server

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bismarck/internal/engine"
)

// testRoot is the scratch root TestMain owns; file-catalog tests get their
// directories from testCatalogDir so the shadow-leak sweep sees them.
var testRoot string

// TestMain fails the package if any test leaked an in-flight
// *__shadow*.heap file — same contract as the engine and sqlish sweeps —
// or left goroutines running: job workers, connection handlers and frame
// workers must all be gone once their test's manager is drained and its
// server closed.
func TestMain(m *testing.M) {
	var err error
	testRoot, err = os.MkdirTemp("", "bismarck-server-test-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "server tests: %v\n", err)
		os.Exit(1)
	}
	base := runtime.NumGoroutine()
	code := m.Run()
	if stacks := goroutineLeak(base, 5*time.Second); stacks != "" {
		fmt.Fprintf(os.Stderr, "server tests leaked goroutines:\n%s\n", stacks)
		if code == 0 {
			code = 1
		}
	}
	if leaks := findShadowLeaks(testRoot); len(leaks) > 0 {
		fmt.Fprintf(os.Stderr, "server tests leaked in-flight shadow heaps:\n")
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

func findShadowLeaks(root string) []string {
	var leaks []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), engine.ShadowSuffix) && strings.HasSuffix(d.Name(), ".heap") {
			leaks = append(leaks, path)
		}
		return nil
	})
	return leaks
}

// inSessionRun reports whether some goroutine is inside
// server.(*Session).Run: a statement sent over the wire has reached its
// handler.
func inSessionRun() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "server.(*Session).Run(")
}

// testCatalogDir returns a fresh catalog directory under the swept root.
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

// quiescent is the runtime leak backstop for admissions and name locks:
// it closes the manager's TCP server (which waits out every connection
// handler and frame worker) and drains its jobs, then requires the
// name-lock registry to be empty — entries are refcounted, so any entry
// is a held or leaked lock — and every gate (global, per-model, executor,
// job) to show no slot held and no waiter queued.
func quiescent(t *testing.T, m *Manager) {
	t.Helper()
	if srv, ok := servers.Load(m); ok {
		srv.(*TCPServer).Close()
	}
	m.Drain()
	m.locks.mu.Lock()
	var names []string
	for name := range m.locks.locks {
		names = append(names, name)
	}
	m.locks.mu.Unlock()
	if len(names) > 0 {
		t.Errorf("name locks still registered after close: %v", names)
	}
	gs, models := m.plane.Stats()
	if gs.Inflight != 0 || gs.Queued != 0 {
		t.Errorf("global gate after close: inflight=%d queued=%d", gs.Inflight, gs.Queued)
	}
	for _, ms := range models {
		if ms.Inflight != 0 || ms.Queued != 0 {
			t.Errorf("model %s gate after close: inflight=%d queued=%d", ms.Model, ms.Inflight, ms.Queued)
		}
	}
	if in, q := m.execGate.Inflight(), m.execGate.Queued(); in != 0 || q != 0 {
		t.Errorf("executor gate after close: inflight=%d queued=%d", in, q)
	}
	if in, q := m.sched.gate.Inflight(), m.sched.gate.Queued(); in != 0 || q != 0 {
		t.Errorf("job gate after close: inflight=%d queued=%d", in, q)
	}
}

// newManager builds a manager over an in-memory catalog whose Drain runs
// at the test's cleanup — after a failed assertion as well, where a
// deferred Drain would run before any cleanup could free a parked job.
func newManager(t *testing.T, opts Options) *Manager {
	m := NewManager(engine.NewCatalog(), opts)
	t.Cleanup(m.Drain)
	return m
}

// park returns the channel a BeforeSave hook parks its job on. The test
// closes it where its scenario frees the job; if the test fails first,
// cleanup closes it, and since park is called after newManager that close
// runs before Drain: a failed assertion fails the test instead of leaving
// Drain waiting on the parked job until the package times out.
func park(t *testing.T) chan struct{} {
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return release
}

// parked waits for a BeforeSave hook to report its job on entered. A job
// that fails before its save hook never does, so after 10 s parked fails
// the test with job id's state and error rather than leaving it blocked
// until the package times out.
func parked(t *testing.T, m *Manager, entered <-chan int64, id int64) int64 {
	t.Helper()
	select {
	case got := <-entered:
		return got
	case <-time.After(10 * time.Second):
	}
	job, err := m.sched.get(id)
	if err != nil {
		t.Fatalf("no job reached its save hook within 10s: %v", err)
	}
	v := job.View()
	t.Fatalf("no job reached its save hook within 10s; job %d is %s: %s", id, v.State, v.Err)
	return 0
}
