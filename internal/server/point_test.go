package server

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// pointSession is an in-process session over a fresh in-memory catalog
// holding src as table name.
func pointSession(t *testing.T, name string, src *engine.Table) (*Manager, *Session, *bytes.Buffer) {
	t.Helper()
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
	t.Cleanup(func() { quiescent(t, m) })
	dst, err := m.Catalog().Create(name, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return m, m.NewSession(&out), &out
}

// scoreLines parses the per-tuple "%.6g" output of a point PREDICT.
func scoreLines(t *testing.T, out string) []float64 {
	t.Helper()
	var scores []float64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil {
			t.Fatalf("non-numeric point-PREDICT output line %q in:\n%s", line, out)
		}
		scores = append(scores, v)
	}
	return scores
}

// TestPointPredictVectorLayout trains LR (vector layout: all inline values
// form the feature vector) and scores through both inline forms.
func TestPointPredictVectorLayout(t *testing.T) {
	_, s, out := pointSession(t, "papers", data.Forest(400, 7))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr
		WITH alpha=0.2, epochs=8, seed=1 COLUMN vec LABEL label INTO m;`)

	out.Reset()
	mustExec(t, s, `PREDICT (0.25, 0.5, 0.75) USING m;`)
	single := scoreLines(t, out.String())
	if len(single) != 1 {
		t.Fatalf("single form printed %d scores, want 1:\n%s", len(single), out.String())
	}
	if single[0] <= 0 || single[0] >= 1 {
		t.Fatalf("LR point score %v outside (0,1)", single[0])
	}

	out.Reset()
	mustExec(t, s, `PREDICT VALUES (0.25, 0.5, 0.75), (0.9, 0.1, 0.2) USING m;`)
	batch := scoreLines(t, out.String())
	if len(batch) != 2 {
		t.Fatalf("batched form printed %d scores, want 2:\n%s", len(batch), out.String())
	}
	if batch[0] != single[0] {
		t.Fatalf("same tuple scored differently: %v vs %v", batch[0], single[0])
	}
}

// TestPointPredictScalarLayout trains LMF (scalar layout: positional
// (row, col) values) and exercises the integral-value and arity checks.
func TestPointPredictScalarLayout(t *testing.T) {
	_, s, out := pointSession(t, "ratings", data.MovieLens(20, 15, 400, 3, 0.05, 2))
	mustExec(t, s, `SELECT * FROM ratings TO TRAIN lmf
		WITH rows=20, cols=15, rank=3, epochs=12, alpha=0.05, seed=2 INTO mf;`)

	out.Reset()
	mustExec(t, s, `PREDICT (3, 4) USING mf;`)
	scores := scoreLines(t, out.String())
	if len(scores) != 1 || math.IsNaN(scores[0]) {
		t.Fatalf("lmf point score: %v", scores)
	}

	// A cell outside the trained matrix is NaN, not an error.
	out.Reset()
	mustExec(t, s, `PREDICT (1000, 4) USING mf;`)
	if !strings.Contains(out.String(), "NaN") {
		t.Fatalf("out-of-matrix cell should print NaN, got %q", out.String())
	}

	for stmt, wantSub := range map[string]string{
		`PREDICT (3.5, 4) USING mf;`:   "integer",
		`PREDICT (1, 2, 3) USING mf;`:  "wants 2",
		`PREDICT VALUES (7) USING mf;`: "wants 2",
	} {
		if err := s.Exec(stmt); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s => %v, want substring %q", stmt, err, wantSub)
		}
	}
}

// TestPointPredictUnknownModel pins the typed error contract: scoring a
// model that was never trained (or has been dropped) surfaces as
// *sqlish.UnknownModelError with the SHOW MODELS hint.
func TestPointPredictUnknownModel(t *testing.T) {
	m, s, _ := pointSession(t, "papers", data.Forest(200, 3))
	err := s.Exec(`PREDICT (1, 2) USING nosuch;`)
	var unk *sqlish.UnknownModelError
	if !errors.As(err, &unk) {
		t.Fatalf("want *UnknownModelError, got %T: %v", err, err)
	}
	if unk.Model != "nosuch" || !strings.Contains(err.Error(), "SHOW MODELS") {
		t.Fatalf("error lost its hint: %v", err)
	}

	// Dropped after training: same typed error, not a stale read of the
	// snapshot the TRAIN's refill cached.
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO m;`)
	for _, name := range []string{"m", "m" + spec.MetaSuffix} {
		if err := m.Catalog().Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Exec(`PREDICT (1, 2, 3) USING m;`)
	if !errors.As(err, &unk) {
		t.Fatalf("dropped model: want *UnknownModelError, got %T: %v", err, err)
	}
}

// TestPointLayoutUnsupportedTask: a task without a Predict hook fails with
// a direct diagnosis, not a panic or a nil score.
func TestPointLayoutUnsupportedTask(t *testing.T) {
	_, s, _ := pointSession(t, "edges", data.MovieLens(10, 10, 120, 2, 0.1, 4))
	mustExec(t, s, `SELECT * FROM edges TO TRAIN maxcut WITH nodes=10, epochs=2 INTO cut;`)
	err := s.Exec(`PREDICT (1, 2) USING cut;`)
	if err == nil || !strings.Contains(err.Error(), "does not support PREDICT") {
		t.Fatalf("maxcut point predict => %v", err)
	}
}
