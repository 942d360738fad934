package server

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// countedSteps counts every gradient step the "stepcount" task takes.
var countedSteps atomic.Int64

// stepCountTask is LR that counts its gradient steps.
type stepCountTask struct{ *tasks.LR }

func (c stepCountTask) Step(m core.Model, tp engine.Tuple, alpha float64) {
	countedSteps.Add(1)
	c.LR.Step(m, tp, alpha)
}

var registerStepCount sync.Once

// stepCounter registers the "stepcount" task once, zeroes the counter and
// returns it.
func stepCounter() *atomic.Int64 {
	registerStepCount.Do(func() {
		spec.Register(spec.TaskSpec{
			Name:    "stepcount",
			Summary: "test-only: LR that counts its gradient steps",
			Schema:  tasks.DenseExampleSchema,
			Params:  []spec.ParamSpec{},
			Build: func(in spec.BuildInput) (core.Task, error) {
				dim, err := spec.InferVecDim(in.View, 1)
				if err != nil {
					return nil, err
				}
				return stepCountTask{tasks.NewLR(dim)}, nil
			},
			Snapshot: func(core.Task) map[string]string { return nil },
			Predict:  func(core.Task, vector.Dense, engine.Tuple) float64 { return 0 },
		})
	})
	countedSteps.Store(0)
	return &countedSteps
}

// TestCancelRunningJobStopsTraining: CANCEL JOB on a running 10 000-epoch
// job stops it before its next epoch — at most one epoch's worth of
// gradient steps runs after the cancel returns — and the job settles
// canceled with the previous generation intact.
func TestCancelRunningJobStopsTraining(t *testing.T) {
	const rows = 200
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
	seedPapers(t, m, rows)
	var out bytes.Buffer
	s := m.NewSession(&out)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`)
	gen1 := readModel(t, m.Catalog(), "m")

	steps := stepCounter()
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN stepcount WITH epochs=10000, seed=4 INTO m ASYNC;`)
	waitUntil(t, "the job to reach epoch 2", func() bool { return steps.Load() >= 2*rows })

	out.Reset()
	mustExec(t, s, `CANCEL JOB 2;`)
	atCancel := steps.Load()
	if !strings.Contains(out.String(), "cancel requested") {
		t.Fatalf("cancel output: %s", out.String())
	}
	if err := s.Exec(`WAIT JOB 2;`); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("wait canceled job: %v", err)
	}
	if after := steps.Load() - atCancel; after > rows {
		t.Fatalf("%d gradient steps ran after CANCEL JOB returned, want at most one epoch (%d)", after, rows)
	}
	if !sameModel(gen1, readModel(t, m.Catalog(), "m")) {
		t.Fatal("canceled job overwrote the model")
	}
	quiescent(t, m)
}

// TestSyncTrainStopsOnServerClose: TCPServer.Close during a 10 000-epoch
// sync TRAIN over a connection returns after at most one further epoch,
// the model keeps its previous generation, no __shadow is left (the
// testCatalogDir sweep) and every lock and admission is released.
func TestSyncTrainStopsOnServerClose(t *testing.T) {
	const rows = 200
	cat, err := engine.OpenFileCatalog(testCatalogDir(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	m := NewManager(cat, Options{Workers: 1})
	seedPapers(t, m, rows)
	c, err := Dial(startTCP(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`); err != nil {
		t.Fatal(err)
	}
	gen1 := readModel(t, cat, "m")

	steps := stepCounter()
	if err := c.Send(`SELECT vec, label FROM papers TO TRAIN stepcount WITH epochs=10000, seed=4 INTO m;`); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the statement to reach epoch 2", func() bool { return steps.Load() >= 2*rows })

	srv, _ := servers.Load(m)
	atClose := steps.Load()
	if err := srv.(*TCPServer).Close(); err != nil {
		t.Fatal(err)
	}
	if after := steps.Load() - atClose; after > rows {
		t.Fatalf("%d gradient steps ran before Close returned, want at most one epoch (%d)", after, rows)
	}
	var body strings.Builder
	if _, err := c.ReadResponse(&body); err == nil {
		t.Fatalf("TRAIN answered OK across shutdown: %q", body.String())
	}
	if !sameModel(gen1, readModel(t, cat, "m")) {
		t.Fatal("TRAIN stopped by Close overwrote the model")
	}
	quiescent(t, m)
}

// TestCancelSyncStatementFromAnotherConnection: a sync TRAIN is a job like
// any other. A second connection's SHOW JOBS lists it running and its
// CANCEL JOB stops it within one epoch's gradient steps; the sending
// connection gets ERR and the model keeps its previous generation.
func TestCancelSyncStatementFromAnotherConnection(t *testing.T) {
	const rows = 200
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
	seedPapers(t, m, rows)
	addr := startTCP(t, m)
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`); err != nil {
		t.Fatal(err)
	}
	gen1 := readModel(t, m.Catalog(), "m")

	steps := stepCounter()
	if err := a.Send(`SELECT vec, label FROM papers TO TRAIN stepcount WITH epochs=10000, seed=4 INTO m;`); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the statement to reach epoch 2", func() bool { return steps.Load() >= 2*rows })

	body, err := b.Exec("SHOW JOBS")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^job 2 +running +model=m .* TO TRAIN stepcount `).MatchString(body) {
		t.Fatalf("SHOW JOBS does not list the running sync TRAIN as job 2:\n%s", body)
	}
	if _, err := b.Exec("CANCEL JOB 2"); err != nil {
		t.Fatal(err)
	}
	atCancel := steps.Load()
	var reply strings.Builder
	if _, err := a.ReadResponse(&reply); err == nil {
		t.Fatalf("canceled sync TRAIN answered OK: %q", reply.String())
	}
	if after := steps.Load() - atCancel; after > rows {
		t.Fatalf("%d gradient steps ran after CANCEL JOB returned, want at most one epoch (%d)", after, rows)
	}
	if _, err := b.Exec("WAIT JOB 2"); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("wait canceled sync job: %v", err)
	}
	if !sameModel(gen1, readModel(t, m.Catalog(), "m")) {
		t.Fatal("canceled sync TRAIN overwrote the model")
	}
	quiescent(t, m)
}

// TestQueuedSyncStatementCanceledOnServerClose: a sync TRAIN still queued
// for a job slot when TCPServer.Close cancels its connection settles
// canceled without running, so its handler and Close both return while
// the job holding the slot is parked.
func TestQueuedSyncStatementCanceledOnServerClose(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 100)
	entered := make(chan int64, 1)
	release := park(t)
	m.Hooks.BeforeSave = func(jobID int64, model string) {
		if jobID == 1 {
			entered <- jobID
			<-release
		}
	}
	c, err := Dial(startTCP(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO parked ASYNC;`); err != nil {
		t.Fatal(err)
	}
	parked(t, m, entered, 1)
	if err := c.Send(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO queued;`); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the sync TRAIN to queue as job 2", func() bool {
		job, err := m.sched.get(2)
		return err == nil && job.View().State == JobQueued
	})

	srv, _ := servers.Load(m)
	closed := make(chan error, 1)
	go func() { closed <- srv.(*TCPServer).Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCPServer.Close hung behind a queued sync statement")
	}
	job, err := m.sched.get(2)
	if err != nil {
		t.Fatal(err)
	}
	if v := job.View(); v.State != JobCanceled {
		t.Fatalf("queued sync job after Close: %s", v.State)
	}
	close(release)
	if _, err := m.Catalog().Get("queued"); err == nil {
		t.Fatal("the canceled queued TRAIN persisted a model")
	}
	quiescent(t, m)
}
