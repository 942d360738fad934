package sqlish

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// panickyLossTask is LR whose loss panics on one row.
type panickyLossTask struct{ *tasks.LR }

func (p panickyLossTask) Loss(w vector.Dense, tp engine.Tuple) float64 {
	if tp[0].Int == 250 {
		panic("injected loss panic")
	}
	return p.LR.Loss(w, tp)
}

var registerLossPanicTask sync.Once

// TestLossPanicFailsStatementNotProcess: a task whose loss panics on one
// row fails the TRAIN with an error — over one loss block, where the pass
// runs on the session's goroutine, and over several, where it runs on the
// workers — and the session, catalog and process survive without a model.
func TestLossPanicFailsStatementNotProcess(t *testing.T) {
	registerLossPanicTask.Do(func() {
		spec.Register(spec.TaskSpec{
			Name:    "losspaniclr",
			Summary: "test-only: LR whose Loss panics on one row",
			Schema:  tasks.DenseExampleSchema,
			Params:  []spec.ParamSpec{},
			Build: func(in spec.BuildInput) (core.Task, error) {
				dim, err := spec.InferVecDim(in.View, 1)
				if err != nil {
					return nil, err
				}
				return panickyLossTask{tasks.NewLR(dim)}, nil
			},
			Snapshot: func(core.Task) map[string]string { return nil },
			Predict:  func(core.Task, vector.Dense, engine.Tuple) float64 { return 0 },
		})
	})
	s, _ := declSession(t)
	for _, n := range []int{300, engine.BlockRows + 1000} {
		src := fmt.Sprintf("papers%d", n)
		copyInto(t, s, src, data.Forest(n, 5))
		err := s.Exec("SELECT * FROM " + src + " TO TRAIN losspaniclr WITH epochs=2 INTO pm;")
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%d rows: a panicking loss must fail the statement with the panic: %v", n, err)
		}
		if _, getErr := s.Cat.Get("pm"); getErr == nil {
			t.Fatalf("%d rows: failed TRAIN must not persist a model", n)
		}
		mustExec(t, s, "SELECT * FROM "+src+" TO TRAIN lr WITH epochs=2 INTO ok"+src+";")
	}
}

// panickyStepTask is LR whose every gradient step panics. Its loss first
// waits for a step to have been taken: with mrs at least the row count the
// I/O worker drops no tuple, so only MRS's Memory worker steps, and the
// statement must not end before it has.
type panickyStepTask struct {
	*tasks.LR
	once    sync.Once
	stepped chan struct{}
}

func (p *panickyStepTask) Step(core.Model, engine.Tuple, float64) {
	p.once.Do(func() { close(p.stepped) })
	panic("injected step panic")
}

func (p *panickyStepTask) Loss(w vector.Dense, tp engine.Tuple) float64 {
	select {
	case <-p.stepped:
	case <-time.After(10 * time.Second):
	}
	return p.LR.Loss(w, tp)
}

var registerStepPanicTask sync.Once

// TestStepPanicFailsEveryPlan: a task whose gradient step panics fails the
// TRAIN with the panic on every plan spec.Train dispatches — the
// sequential epoch and the sampling plans on the session's goroutine, the
// §3.3 schemes and the shards on RunBlocks workers, MRS's Memory worker on
// its own — persists no model,
// and leaves the session able to train with the same plan.
func TestStepPanicFailsEveryPlan(t *testing.T) {
	registerStepPanicTask.Do(func() {
		spec.Register(spec.TaskSpec{
			Name:    "steppaniclr",
			Summary: "test-only: LR whose Step panics",
			Schema:  tasks.DenseExampleSchema,
			Params:  []spec.ParamSpec{},
			Build: func(in spec.BuildInput) (core.Task, error) {
				dim, err := spec.InferVecDim(in.View, 1)
				if err != nil {
					return nil, err
				}
				return &panickyStepTask{LR: tasks.NewLR(dim), stepped: make(chan struct{})}, nil
			},
			Snapshot: func(core.Task) map[string]string { return nil },
			Predict:  func(core.Task, vector.Dense, engine.Tuple) float64 { return 0 },
		})
	})
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(200, 5))
	for _, plan := range []string{"", ", parallel=lock, workers=2", ", parallel=aig, workers=2",
		", parallel=nolock, workers=2", ", parallel=pure_uda, workers=2", ", shards=2",
		", mrs=50", ", mrs=1000", ", reservoir=50"} {
		err := s.Exec("SELECT vec, label FROM papers TO TRAIN steppaniclr WITH epochs=2" + plan + " INTO pm;")
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("plan %q: a panicking step must fail the statement with the panic: %v", plan, err)
		}
		for _, n := range []string{"pm", metaTable("pm")} {
			if _, getErr := s.Cat.Get(n); getErr == nil {
				t.Fatalf("plan %q: failed TRAIN persisted %s", plan, n)
			}
		}
		mustExec(t, s, "SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2"+plan+" INTO ok;")
	}
}
