package sqlish

import (
	"strings"
	"sync"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// TestTrainWithShardsEndToEnd drives the full statement path of the
// sharded mode: WITH shards=K plumbs from the parser through the knobs to
// the sharded epoch runner, the trained model persists like any other, and
// PREDICT scores with it.
func TestTrainWithShardsEndToEnd(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(600, 5))

	mustExec(t, s, `SELECT vec, label FROM papers
		TO TRAIN lr
		WITH alpha=0.2, epochs=10, shards=4, seed=3
		COLUMN vec LABEL label
		INTO m;`)
	if !strings.Contains(out.String(), "IGD/Sharded×4(roundrobin)") {
		t.Fatalf("train output does not report the sharded dispatch: %s", out.String())
	}
	if _, err := s.Cat.Get("m"); err != nil {
		t.Fatal("model table not persisted")
	}
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "predicted 600 rows") {
		t.Fatalf("predict output: %s", out.String())
	}

	// Hash partitioning via shard_by, reported in the dispatch string.
	out.Reset()
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN svm
		WITH epochs=5, shards=2, shard_by=hash INTO mh;`)
	if !strings.Contains(out.String(), "IGD/Sharded×2(hash)") {
		t.Fatalf("hash dispatch missing: %s", out.String())
	}
}

// TestShowShardsDiagnostics checks the SHOW SHARDS output: both strategies
// reported, round-robin perfectly balanced, totals matching the table.
func TestShowShardsDiagnostics(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))

	mustExec(t, s, "SHOW SHARDS papers 4;")
	got := out.String()
	if !strings.Contains(got, `table "papers": 100 rows over 4 shards`) {
		t.Fatalf("header missing: %s", got)
	}
	if !strings.Contains(got, "roundrobin 25 25 25 25 (min 25, max 25)") {
		t.Fatalf("round-robin distribution missing: %s", got)
	}
	if !strings.Contains(got, "hash") {
		t.Fatalf("hash distribution missing: %s", got)
	}

	if err := s.Exec("SHOW SHARDS nosuch 4;"); err == nil {
		t.Fatal("SHOW SHARDS on a missing table must error")
	}
}

// TestShardsKnobRejectedAtStatementLevel: the knob rules surface through
// Session.Exec, not just SplitKnobs in isolation.
func TestShardsKnobRejectedAtStatementLevel(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(50, 5))
	for stmt, want := range map[string]string{
		"SELECT vec, label FROM papers TO TRAIN lr WITH shards=0 INTO m;":               "positive integer",
		"SELECT vec, label FROM papers TO TRAIN lr WITH shards=2, parallel=aig INTO m;": "mutually exclusive",
		"SELECT vec, label FROM papers TO TRAIN lr WITH shards=2, solver=batch INTO m;": "does not combine",
		"SELECT vec, label FROM papers TO TRAIN lr WITH shard_by=roundrobin INTO m;":    "requires shards",
		"SELECT vec, label FROM papers TO TRAIN lr WITH shards=2, reservoir=10 INTO m;": "mutually exclusive",
	} {
		err := s.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s\n=> %v (want %q)", stmt, err, want)
		}
	}
}

// panickyShardTask blows up on its Nth gradient step.
type panickyShardTask struct {
	*tasks.LR
	mu    sync.Mutex
	calls int
}

func (p *panickyShardTask) Step(m core.Model, tp engine.Tuple, alpha float64) {
	p.mu.Lock()
	p.calls++
	c := p.calls
	p.mu.Unlock()
	if c >= 40 {
		panic("injected statement-level shard panic")
	}
	p.LR.Step(m, tp, alpha)
}

var registerPanicTask sync.Once

// TestShardWorkerPanicFailsStatementNotProcess is the statement-level half
// of the panic-containment satellite: a task whose gradient step panics
// inside a shard worker fails the TRAIN statement with an error naming the
// shard — the session, the catalog, and the process all survive, and no
// model table is created.
func TestShardWorkerPanicFailsStatementNotProcess(t *testing.T) {
	registerPanicTask.Do(func() {
		spec.Register(spec.TaskSpec{
			Name:    "paniclr",
			Summary: "test-only: LR whose Step panics mid-epoch",
			Schema:  tasks.DenseExampleSchema,
			Params:  []spec.ParamSpec{},
			Build: func(in spec.BuildInput) (core.Task, error) {
				dim, err := spec.InferVecDim(in.View, 1)
				if err != nil {
					return nil, err
				}
				return &panickyShardTask{LR: tasks.NewLR(dim)}, nil
			},
			Snapshot: func(core.Task) map[string]string { return nil },
			Predict: func(tsk core.Task, w vector.Dense, tp engine.Tuple) float64 {
				return 0
			},
		})
	})
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(200, 5))

	err := s.Exec("SELECT vec, label FROM papers TO TRAIN paniclr WITH shards=4, epochs=3 INTO pm;")
	if err == nil {
		t.Fatal("panicking shard worker must fail the statement")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("statement error does not surface the panic: %v", err)
	}
	if _, getErr := s.Cat.Get("pm"); getErr == nil {
		t.Fatal("failed TRAIN must not persist a model")
	}
	// The session keeps working afterwards.
	mustExec(t, s, "SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, shards=2 INTO ok;")
}
