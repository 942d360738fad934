package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/sqlish"
	"bismarck/internal/wire"
)

// seedPapers copies a Forest classification table into the manager's
// catalog.
func seedPapers(t *testing.T, m *Manager, n int) {
	t.Helper()
	src := data.Forest(n, 5)
	dst, err := m.Catalog().Create("papers", src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
}

// readModel snapshots a persisted model's (idx, value) rows.
func readModel(t *testing.T, cat *engine.Catalog, name string) map[int64]float64 {
	t.Helper()
	tbl, err := cat.Get(name)
	if err != nil {
		t.Fatalf("model %q: %v", name, err)
	}
	out := map[int64]float64{}
	if err := tbl.Scan(func(tp engine.Tuple) error {
		out[tp[0].Int] = tp[1].Float
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameModel(a, b map[int64]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func mustExec(t *testing.T, s *Session, stmt string) {
	t.Helper()
	if err := s.Exec(stmt); err != nil {
		t.Fatalf("%s\n=> %v", stmt, err)
	}
}

// TestNameLocksExcludeWriters sanity-checks the lock registry: distinct
// names are independent, same-name writers exclude readers.
func TestNameLocksExcludeWriters(t *testing.T) {
	nl := newNameLocks()
	unlockA := nl.Lock(sqlish.NewLockKey("a"))
	unlockB := nl.Lock(sqlish.NewLockKey("b")) // distinct name: must not block
	unlockB()

	acquired := make(chan struct{})
	go func() {
		defer nl.RLock(sqlish.NewLockKey("a"))()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired a write-held name lock")
	default:
	}
	unlockA()
	<-acquired

	// Concurrent readers share.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer nl.RLock(sqlish.NewLockKey("a"))()
		}()
	}
	wg.Wait()
}

// stalledWriter is a client that stops reading: every Write parks until
// release closes, and entered closes at the first one.
type stalledWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStalledClientHoldsNoNameLock: a session whose client stops reading
// while it prints SHOW MODELS holds no name lock as it waits, so a second
// session's sync TRAIN into the listed model commits before a deadline.
func TestStalledClientHoldsNoNameLock(t *testing.T) {
	m := newManager(t, Options{})
	seedPapers(t, m, 200)
	train := `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO m;`
	mustExec(t, m.NewSession(io.Discard), train)

	w := &stalledWriter{entered: make(chan struct{}), release: park(t)}
	showed := make(chan error, 1)
	go func() { showed <- m.NewSession(w).Exec(`SHOW MODELS;`) }()
	select {
	case <-w.entered:
	case err := <-showed:
		t.Fatalf("SHOW MODELS returned (%v) without writing", err)
	case <-time.After(10 * time.Second):
		t.Fatal("SHOW MODELS never wrote")
	}

	trained := make(chan error, 1)
	go func() { trained <- m.NewSession(io.Discard).Exec(train) }()
	select {
	case err := <-trained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TRAIN INTO m did not commit while a stalled client printed SHOW MODELS")
	}
	close(w.release)
	if err := <-showed; err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTrainJobLifecycle drives the happy path end to end in process:
// submit returns a job id immediately, WAIT JOB observes completion, the
// model is persisted, and SHOW JOBS reports the terminal state.
func TestAsyncTrainJobLifecycle(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 2})
	defer m.Drain()
	seedPapers(t, m, 200)
	var out bytes.Buffer
	s := m.NewSession(&out)

	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3 INTO m ASYNC;`)
	if !strings.Contains(out.String(), "job 1 queued") {
		t.Fatalf("submit output: %s", out.String())
	}

	out.Reset()
	mustExec(t, s, `WAIT JOB 1;`)
	if !strings.Contains(out.String(), "LR trained") || !strings.Contains(out.String(), "job 1 done") {
		t.Fatalf("wait output: %s", out.String())
	}
	if w := readModel(t, m.Catalog(), "m"); len(w) == 0 {
		t.Fatal("async train persisted an empty model")
	}

	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	if !strings.Contains(out.String(), "job 1") || !strings.Contains(out.String(), "done") {
		t.Fatalf("SHOW JOBS: %s", out.String())
	}

	// Unknown jobs are typed errors, failed statements reach WAIT.
	if err := s.Exec(`WAIT JOB 99;`); err == nil || !strings.Contains(err.Error(), "no job 99") {
		t.Fatalf("wait unknown: %v", err)
	}
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1, alpha=bogus INTO x ASYNC;`)
	if err := s.Exec(`WAIT JOB 2;`); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("wait failed job: %v", err)
	}
}

// TestPredictMidTrainServesPreviousSnapshot is the acceptance scenario,
// made deterministic with the BeforeSave hook: an async re-TRAIN of model
// m is parked at its save boundary while a PREDICT on m runs — the
// PREDICT must succeed against the previous persisted generation, and the
// new generation only becomes visible after the job commits.
func TestPredictMidTrainServesPreviousSnapshot(t *testing.T) {
	m := newManager(t, Options{Workers: 2})
	seedPapers(t, m, 200)

	entered := make(chan int64, 1)
	release := park(t)
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		if jobID != 2 {
			return
		}
		entered <- jobID
		<-release
	}

	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`)
	gen1 := readModel(t, m.Catalog(), "m")

	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=6, seed=9 INTO m ASYNC;`)
	jobID := parked(t, m, entered, 2) // trained, parked right before taking m's write lock

	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	if !strings.Contains(out.String(), "running") {
		t.Fatalf("job not running mid-train: %s", out.String())
	}

	// The acceptance read: PREDICT mid-training, same model name.
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "predicted 200 rows") {
		t.Fatalf("mid-train predict: %s", out.String())
	}
	if !sameModel(gen1, readModel(t, m.Catalog(), "m")) {
		t.Fatal("model mutated while the job was parked before its save")
	}

	close(release)
	out.Reset()
	mustExec(t, s, `WAIT JOB 2;`)
	if jobID != 2 || !strings.Contains(out.String(), "job 2 done") {
		t.Fatalf("wait: job=%d out=%s", jobID, out.String())
	}
	if sameModel(gen1, readModel(t, m.Catalog(), "m")) {
		t.Fatal("committed job did not replace the model generation")
	}
}

// TestCancelRunningJobStopsAtSaveBoundary: a CANCEL landing while the job
// trains discards the result — the job terminates canceled and the
// previous model generation stays untouched.
func TestCancelRunningJobStopsAtSaveBoundary(t *testing.T) {
	m := newManager(t, Options{Workers: 2})
	seedPapers(t, m, 150)

	entered := make(chan int64, 1)
	release := park(t)
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		if jobID != 2 {
			return
		}
		entered <- jobID
		<-release
	}

	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`)
	gen1 := readModel(t, m.Catalog(), "m")

	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=5, seed=4 INTO m ASYNC;`)
	parked(t, m, entered, 2)

	out.Reset()
	mustExec(t, s, `CANCEL JOB 2;`)
	if !strings.Contains(out.String(), "cancel requested") {
		t.Fatalf("cancel output: %s", out.String())
	}
	close(release)

	if err := s.Exec(`WAIT JOB 2;`); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("wait canceled job: %v", err)
	}
	if !sameModel(gen1, readModel(t, m.Catalog(), "m")) {
		t.Fatal("canceled job overwrote the model")
	}
}

// TestCancelQueuedJobNeverRuns: with one worker busy, a queued job
// canceled before pickup settles canceled without training at all.
func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 150)

	var mu sync.Mutex
	saves := map[int64]int{}
	release := park(t)
	entered := make(chan int64, 2)
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		mu.Lock()
		saves[jobID]++
		mu.Unlock()
		entered <- jobID
		<-release
	}

	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO a ASYNC;`)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO b ASYNC;`)
	parked(t, m, entered, 1) // job 1 holds the only worker

	out.Reset()
	mustExec(t, s, `CANCEL JOB 2;`)
	if !strings.Contains(out.String(), "job 2 canceled") {
		t.Fatalf("cancel queued: %s", out.String())
	}
	// The canceled queued job settles terminal immediately — SHOW JOBS
	// agrees and WAIT returns without waiting for the busy worker.
	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	if !strings.Contains(out.String(), "canceled") {
		t.Fatalf("canceled queued job not terminal in SHOW JOBS: %s", out.String())
	}
	if err := s.Exec(`WAIT JOB 2;`); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("wait job 2: %v", err)
	}
	close(release)
	mustExec(t, s, `WAIT JOB 1;`)

	mu.Lock()
	defer mu.Unlock()
	if saves[2] != 0 {
		t.Fatal("canceled queued job reached its save boundary")
	}
	if _, err := m.Catalog().Get("b"); err == nil {
		t.Fatal("canceled queued job persisted a model")
	}
}

// TestSyncStatementsStillWork: the server session passes non-job
// statements through to the sqlish layer (SHOW MODELS included).
func TestSyncStatementsStillWork(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	defer m.Drain()
	seedPapers(t, m, 120)
	var out bytes.Buffer
	s := m.NewSession(&out)

	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN svm WITH epochs=3 INTO m;`)
	out.Reset()
	mustExec(t, s, `SHOW MODELS;`)
	if !strings.Contains(out.String(), "task=svm") {
		t.Fatalf("SHOW MODELS: %s", out.String())
	}
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO EVALUATE USING m;`)
	if !strings.Contains(out.String(), "svm") {
		t.Fatalf("EVALUATE: %s", out.String())
	}
}

// TestJobHistoryEviction: terminal jobs past the retention limit are
// evicted (a week-long daemon must not hoard every job's output), while
// WAIT/SHOW keep working for the retained tail.
func TestJobHistoryEviction(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1, JobHistory: 2})
	defer m.Drain()
	seedPapers(t, m, 100)
	var out bytes.Buffer
	s := m.NewSession(&out)

	for i := 1; i <= 4; i++ {
		mustExec(t, s, fmt.Sprintf(
			`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO h%d ASYNC;`, i))
		mustExec(t, s, fmt.Sprintf(`WAIT JOB %d;`, i))
	}

	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) > 2 {
		t.Fatalf("history not bounded, %d jobs listed:\n%s", len(lines), out.String())
	}
	if !strings.Contains(out.String(), "job 4") {
		t.Fatalf("newest job evicted:\n%s", out.String())
	}
	if err := s.Exec(`WAIT JOB 1;`); err == nil || !strings.Contains(err.Error(), "no job 1") {
		t.Fatalf("evicted job still WAITable: %v", err)
	}
}

// TestNameLocksEvictIdleEntries: the registry must not retain a mutex per
// name ever mentioned — an attacker looping over random model names would
// otherwise grow daemon memory without bound.
func TestNameLocksEvictIdleEntries(t *testing.T) {
	nl := newNameLocks()
	for i := 0; i < 1000; i++ {
		nl.Lock(sqlish.NewLockKey(fmt.Sprintf("w%d", i)))()
		nl.RLock(sqlish.NewLockKey(fmt.Sprintf("r%d", i)))()
	}
	// Contended entries survive until the last holder releases.
	unlockA := nl.RLock(sqlish.NewLockKey("a"))
	unlockB := nl.RLock(sqlish.NewLockKey("a"))
	nl.mu.Lock()
	n := len(nl.locks)
	nl.mu.Unlock()
	if n != 1 {
		t.Fatalf("registry holds %d entries, want 1 (only the held name)", n)
	}
	unlockA()
	unlockB()
	nl.mu.Lock()
	n = len(nl.locks)
	nl.mu.Unlock()
	if n != 0 {
		t.Fatalf("registry holds %d entries after release, want 0", n)
	}
}

// TestJobHistoryEvictionSkipsLiveJobs: a long-running job must not shield
// the terminal jobs completing behind it — eviction skips live entries
// instead of stopping at them.
func TestJobHistoryEvictionSkipsLiveJobs(t *testing.T) {
	m := newManager(t, Options{Workers: 2, JobHistory: 2})
	seedPapers(t, m, 100)

	entered := make(chan int64, 1)
	release := park(t)
	var gateOnce sync.Once
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		if jobID == 1 {
			gateOnce.Do(func() { entered <- jobID })
			<-release
		}
	}

	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO long ASYNC;`)
	parked(t, m, entered, 1) // job 1 parked at its save boundary
	for i := 2; i <= 5; i++ {
		mustExec(t, s, fmt.Sprintf(
			`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO s%d ASYNC;`, i))
		mustExec(t, s, fmt.Sprintf(`WAIT JOB %d;`, i))
	}
	// This submit triggers eviction: terminal jobs 2..5 are evictable even
	// though live job 1 is older.
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO s6 ASYNC;`)

	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) > 3 {
		t.Fatalf("live job shielded terminal jobs from eviction (%d listed):\n%s",
			len(lines), out.String())
	}
	if !strings.Contains(out.String(), "job 1") {
		t.Fatalf("live job evicted:\n%s", out.String())
	}

	close(release)
	mustExec(t, s, `WAIT JOB 1;`)
	mustExec(t, s, `WAIT JOB 6;`)
}

// TestDrainCancelsQueuedJobs: shutdown lets the running job finish but
// settles the queued backlog as canceled — a Ctrl-C must not first train
// a deep queue.
func TestDrainCancelsQueuedJobs(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 100)

	entered := make(chan int64, 1)
	release := park(t)
	var once sync.Once
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		once.Do(func() { entered <- jobID })
		<-release
	}

	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO running ASYNC;`)
	parked(t, m, entered, 1) // job 1 occupies the only worker
	for i := 2; i <= 4; i++ {
		mustExec(t, s, fmt.Sprintf(
			`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO q%d ASYNC;`, i))
	}

	done := make(chan struct{})
	go func() { m.Drain(); close(done) }()
	// Drain cancels the queued backlog before waiting on workers: the
	// WAITs below unblock from that cancellation while the running job is
	// still parked at its save boundary, proving the queued jobs never
	// train. Only then is the running job released.
	for i := 2; i <= 4; i++ {
		if err := s.Exec(fmt.Sprintf(`WAIT JOB %d;`, i)); err == nil ||
			!strings.Contains(err.Error(), "canceled") {
			t.Fatalf("queued job %d not canceled by drain: %v", i, err)
		}
	}
	close(release)
	<-done

	out.Reset()
	mustExec(t, s, `SHOW JOBS;`)
	got := out.String()
	if !strings.Contains(got, "job 1") || !strings.Contains(got, "done") {
		t.Fatalf("running job did not commit:\n%s", got)
	}
	if strings.Count(got, "canceled") != 3 {
		t.Fatalf("queued jobs not canceled at drain:\n%s", got)
	}
	for i := 2; i <= 4; i++ {
		if _, err := m.Catalog().Get(fmt.Sprintf("q%d", i)); err == nil {
			t.Fatalf("queued job %d trained during drain", i)
		}
	}
}

// TestCheckpointSurvivesUngracefulDeath: a committed statement must reach
// catalog.json immediately — a daemon killed without the graceful
// shutdown path (SIGKILL, OOM) must not lose acknowledged models.
func TestCheckpointSurvivesUngracefulDeath(t *testing.T) {
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat, Options{Workers: 1})
	seedPapers(t, m, 80)
	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO syncm;`)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN svm WITH epochs=2 INTO asyncm ASYNC;`)
	mustExec(t, s, `WAIT JOB 2;`)
	m.Drain()
	// No cat.Save(), no Close — simulate the process dying here.

	re, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range []string{"syncm", "syncm__meta", "asyncm", "asyncm__meta"} {
		tbl, err := re.Get(name)
		if err != nil {
			t.Fatalf("table %q lost after ungraceful death: %v", name, err)
		}
		if tbl.NumRows() == 0 {
			t.Fatalf("table %q reopened empty", name)
		}
	}
}

// TestWaitJobUnblocksOnServerClose: a handler parked in WAIT JOB must not
// deadlock TCPServer.Close — shutdown wakes it with an error and the
// close completes while the job is still running.
func TestWaitJobUnblocksOnServerClose(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 100)

	entered := make(chan int64, 1)
	release := park(t)
	var once sync.Once
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		once.Do(func() { entered <- jobID })
		<-release
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(m)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO m ASYNC`); err != nil {
		t.Fatal(err)
	}
	parked(t, m, entered, 1) // job running, parked at its save boundary

	waitErr := make(chan error, 1)
	go func() {
		_, err := c.Exec("WAIT JOB 1")
		waitErr <- err
	}()
	// Close once the WAIT is parked in its handler: Close must return even
	// though the job is not terminal.
	waitUntil(t, "WAIT JOB to reach the server", inSessionRun)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCPServer.Close deadlocked behind a WAIT JOB handler")
	}
	if err := <-waitErr; err == nil {
		t.Fatal("WAIT JOB should fail when the server shuts down mid-wait")
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	close(release)
	m.Drain()
}

// TestJobGateBusyShedsSyncAndAsync: every heavy statement passes one job
// gate. With its one slot parked at a save boundary and its queue full,
// the next sync and the next ASYNC statement each shed with
// *wire.BusyError — in process, and as "ERR busy: ... retry_after_ms="
// over the wire — and take no job id. A sync statement's reply is still
// its own error value.
func TestJobGateBusyShedsSyncAndAsync(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 100)
	addr := startTCP(t, m)

	entered := make(chan int64, 1)
	release := park(t)
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		if jobID == 1 {
			entered <- jobID
			<-release
		}
	}
	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO parked ASYNC;`)
	parked(t, m, entered, 1)
	// The queued jobs fail as soon as they run: alpha is not a number.
	for i := 0; i < maxPendingJobs; i++ {
		mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH alpha=bogus INTO q ASYNC;`)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const async = `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO x ASYNC;`
	for _, stmt := range []string{`SELECT * FROM papers TO EVALUATE USING parked;`, async} {
		var busy *wire.BusyError
		if err := s.Exec(stmt); !errors.As(err, &busy) {
			t.Fatalf("%s\n=> %v, want *wire.BusyError", stmt, err)
		}
		if _, err := c.Exec(stmt); err == nil || !strings.HasPrefix(err.Error(), "busy: ") ||
			!strings.Contains(err.Error(), "retry_after_ms=") {
			t.Fatalf("%s over the wire\n=> %v, want ERR busy: ... retry_after_ms=", stmt, err)
		}
	}

	close(release)
	next := 2 + maxPendingJobs
	if err := s.Exec(fmt.Sprintf("WAIT JOB %d;", next-1)); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("last queued job: %v", err)
	}
	out.Reset()
	mustExec(t, s, async)
	if !strings.Contains(out.String(), fmt.Sprintf("job %d queued", next)) {
		t.Fatalf("shed statements took job ids: %s", out.String())
	}
	mustExec(t, s, fmt.Sprintf("WAIT JOB %d;", next))

	var unknown *sqlish.UnknownModelError
	if err := s.Exec(`SELECT * FROM papers TO PREDICT USING nosuch;`); !errors.As(err, &unknown) {
		t.Fatalf("sync PREDICT on an unknown model: %v, want *sqlish.UnknownModelError", err)
	}
	quiescent(t, m)
}
