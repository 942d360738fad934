package sqlish

import (
	"strings"
	"testing"

	"bismarck/internal/data"
)

// TestLoadSnapshotGeneration checks the snapshot/generation pairing: the
// generation is read inside the model's lock window, advances across a
// retrain (whose Swap retargets the name), and never moves for an
// untouched model.
func TestLoadSnapshotGeneration(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(200, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lsq WITH epochs=3 INTO m;`)

	snap1, gen1, err := s.LoadSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if gen1 == 0 {
		t.Fatal("trained model has generation 0")
	}
	if !snap1.layout.ok {
		t.Fatalf("lsq snapshot should score points: %s", snap1.layout.reason)
	}
	if snap1.Model != "m" || snap1.Spec.Name != "lsq" || len(snap1.W) == 0 {
		t.Fatalf("snapshot incomplete: %+v", snap1)
	}

	_, again, err := s.LoadSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if again != gen1 {
		t.Fatalf("generation moved without a mutation: %d -> %d", gen1, again)
	}

	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lsq WITH epochs=3 INTO m;`)
	snap2, gen2, err := s.LoadSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("retrain did not advance generation: %d -> %d", gen1, gen2)
	}
	if snap2.Task.Dim() != snap1.Task.Dim() {
		t.Fatalf("rebuilt task changed dimension: %d vs %d", snap1.Task.Dim(), snap2.Task.Dim())
	}
}

// TestPointScratchZeroAlloc pins the hot-path contract locally: once the
// scratch is warm, scoring allocates nothing. (The serve package re-proves
// this through its cache; this is the scoring core alone.)
func TestPointScratchZeroAlloc(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(200, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN svm WITH epochs=3 INTO m;`)
	snap, _, err := s.LoadSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0.1, 0.2, 0.3}
	var sc PointScratch
	if _, err := sc.Score(snap, vals); err != nil { // warm the scratch
		t.Fatal(err)
	}
	sink := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		v, err := sc.Score(snap, vals)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("PointScratch.Score allocates %v/op, want 0", allocs)
	}
	_ = sink
}

// TestShowTasksPointTag: SHOW TASKS marks point-capable tasks so REPL users
// can see which models the inline form will accept.
func TestShowTasksPointTag(t *testing.T) {
	s, out := declSession(t)
	mustExec(t, s, `SHOW TASKS;`)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(line, " ") {
			continue
		}
		tagged := strings.Contains(line, "[point]")
		switch f[0] {
		case "lr", "svm", "lsq", "lasso", "softmax", "lmf":
			if !tagged {
				t.Errorf("task %s should carry [point]: %q", f[0], line)
			}
		case "crf", "kalman", "portfolio", "maxcut":
			if tagged {
				t.Errorf("task %s must not carry [point]: %q", f[0], line)
			}
		}
	}
}
