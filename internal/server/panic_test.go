package server

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// stepPanicTask is LR whose every gradient step panics.
type stepPanicTask struct{ *tasks.LR }

func (stepPanicTask) Step(core.Model, engine.Tuple, float64) { panic("injected step panic") }

var registerStepPanic sync.Once

// registerStepPanicTask registers "steppanic". Its snapshot carries the
// dimension, so executors rebuild it as they rebuild lr.
func registerStepPanicTask() {
	registerStepPanic.Do(func() {
		spec.Register(spec.TaskSpec{
			Name:    "steppanic",
			Summary: "test-only: LR whose Step panics",
			Schema:  tasks.DenseExampleSchema,
			Params:  []spec.ParamSpec{spec.IntDefault("dim", 0, "feature dimension (0 = infer)")},
			Build: func(in spec.BuildInput) (core.Task, error) {
				dim := in.Params.Int("dim")
				if dim <= 0 {
					var err error
					if dim, err = spec.InferVecDim(in.View, 1); err != nil {
						return nil, err
					}
				}
				return stepPanicTask{tasks.NewLR(dim)}, nil
			},
			Snapshot: func(t core.Task) map[string]string {
				return map[string]string{"dim": strconv.Itoa(t.Dim())}
			},
			Predict: func(core.Task, vector.Dense, engine.Tuple) float64 { return 0 },
		})
	})
}

// TestTrainStepPanicRepliesErr: a sync TRAIN whose step panics answers
// ERR with the panic over TCP, the daemon and the connection live on, the
// model keeps its previous generation, and no shadow table (the
// testCatalogDir sweep and the catalog's names), name lock or job-gate
// booking is left behind.
func TestTrainStepPanicRepliesErr(t *testing.T) {
	registerStepPanicTask()
	cat, err := engine.OpenFileCatalog(testCatalogDir(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	m := NewManager(cat, Options{Workers: 1})
	seedPapers(t, m, 200)
	c, err := Dial(startTCP(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, seed=1 INTO m;`); err != nil {
		t.Fatal(err)
	}
	gen1 := readModel(t, cat, "m")

	_, err = c.Exec(`SELECT vec, label FROM papers TO TRAIN steppanic WITH epochs=2, seed=4 INTO m;`)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("a panicking step must answer ERR with the panic: %v", err)
	}
	if _, err := c.Exec(`SELECT * FROM papers TO PREDICT USING m;`); err != nil {
		t.Fatalf("the connection must serve the next statement: %v", err)
	}
	if !sameModel(gen1, readModel(t, cat, "m")) {
		t.Fatal("the failed TRAIN replaced the model")
	}
	for _, n := range cat.Names() {
		if strings.Contains(n, engine.ShadowSuffix) {
			t.Errorf("shadow table %s left behind", n)
		}
	}
	quiescent(t, m)
}

// TestDistributedStepPanicFailsStatementNotExecutors: a shard whose step
// panics on an executor answers ERR, so the statement fails with an error
// naming the shard, its executor and the panic — and both executors live
// on to serve a healthy distributed TRAIN each.
func TestDistributedStepPanicFailsStatementNotExecutors(t *testing.T) {
	registerStepPanicTask()
	a := startExecNode(t, nil)
	b := startExecNode(t, nil)
	m := newManager(t, Options{Workers: 1})
	seedPapers(t, m, 200)
	c, err := Dial(startTCP(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec(`SELECT vec, label FROM papers TO TRAIN steppanic WITH epochs=2, shards=2, seed=7, executors='` +
		a.addr + "," + b.addr + `' INTO pm;`)
	if err == nil {
		t.Fatal("a panicking shard must fail the statement")
	}
	for _, want := range []string{"shard 0", "on executor 127.0.0.1:", "panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("statement error lacks %q: %v", want, err)
		}
	}
	for _, node := range []*execNode{a, b} {
		if _, err := c.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, shards=2, seed=7, executors='` +
			node.addr + `' INTO ok;`); err != nil {
			t.Fatalf("executor %s after the panic: %v", node.addr, err)
		}
	}
	quiescent(t, m)
	a.drained(t, "executor a")
	b.drained(t, "executor b")
}
