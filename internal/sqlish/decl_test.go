package sqlish

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
)

// declSession builds an in-memory session with no session-level defaults,
// so statements control everything.
func declSession(t *testing.T) (*Session, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	return &Session{Cat: engine.NewCatalog(), Out: &out}, &out
}

func mustExec(t *testing.T, s *Session, stmt string) {
	t.Helper()
	if err := s.Exec(stmt); err != nil {
		t.Fatalf("%s\n=> %v", stmt, err)
	}
}

func copyInto(t *testing.T, s *Session, name string, src *engine.Table) {
	t.Helper()
	dst, err := s.Cat.Create(name, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
}

// TestDeclarativeLRRoundTrip trains LR through the new grammar, round-trips
// the persisted model table via PREDICT, and checks EVALUATE metrics.
func TestDeclarativeLRRoundTrip(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(600, 5))

	mustExec(t, s, `SELECT vec, label FROM papers
		TO TRAIN lr
		WITH alpha=0.2, epochs=10, order=shuffle_once, seed=3
		COLUMN vec LABEL label
		INTO m;`)
	if !strings.Contains(out.String(), "LR trained") {
		t.Fatalf("train output: %s", out.String())
	}
	if _, err := s.Cat.Get("m"); err != nil {
		t.Fatal("model table not persisted")
	}
	if _, err := s.Cat.Get("m__meta"); err != nil {
		t.Fatal("model metadata table not persisted")
	}

	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
	m := regexp.MustCompile(`accuracy ([0-9.]+)%`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("predict output: %s", out.String())
	}
	acc, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 75 {
		t.Fatalf("accuracy %.1f%% too low", acc)
	}

	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO EVALUATE USING m;`)
	if !strings.Contains(out.String(), "accuracy=") {
		t.Fatalf("evaluate output: %s", out.String())
	}

	// PREDICT INTO persists scores as a plain user table.
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT INTO scores USING m;`)
	scores, err := s.Cat.Get("scores")
	if err != nil {
		t.Fatal(err)
	}
	if scores.NumRows() != 600 {
		t.Fatalf("scores rows: %d", scores.NumRows())
	}
}

// TestDeclarativeLMFRoundTrip trains LMF declaratively and round-trips the
// persisted factors via PREDICT / EVALUATE.
func TestDeclarativeLMFRoundTrip(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "ratings", data.MovieLens(40, 30, 800, 4, 0.2, 9))

	mustExec(t, s, `SELECT row, col, rating FROM ratings
		TO TRAIN lmf
		WITH rank=4, alpha=0.05, epochs=25, mu=0.01, seed=2
		INTO mf;`)
	if !strings.Contains(out.String(), "LMF trained") {
		t.Fatalf("train output: %s", out.String())
	}

	out.Reset()
	mustExec(t, s, `SELECT * FROM ratings TO EVALUATE USING mf;`)
	m := regexp.MustCompile(`rmse=([0-9.]+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("evaluate output: %s", out.String())
	}
	rmse, _ := strconv.ParseFloat(m[1], 64)
	if rmse > 1.5 {
		t.Fatalf("rmse %.3f too high for in-sample factorization", rmse)
	}

	out.Reset()
	mustExec(t, s, `SELECT * FROM ratings TO PREDICT INTO preds USING mf;`)
	preds, err := s.Cat.Get("preds")
	if err != nil {
		t.Fatal(err)
	}
	if preds.NumRows() != 800 {
		t.Fatalf("preds rows: %d", preds.NumRows())
	}
}

// TestAllTasksReachableDeclaratively drives every registered task through
// TO TRAIN — the registry is the only dispatch, so this enumerates
// spec.Tasks() and fails if any task is missing a fixture or cannot train.
func TestAllTasksReachableDeclaratively(t *testing.T) {
	s, out := declSession(t)

	// Fixtures per canonical task name: source table + extra WITH text.
	copyInto(t, s, "dense", data.Forest(200, 5))
	copyInto(t, s, "ratings", data.MovieLens(20, 15, 300, 3, 0.2, 9))
	copyInto(t, s, "seqs", data.CoNLL(10, 30, 3, 5, 13))
	copyInto(t, s, "series", data.NoisySeries(30, 2, 0.1, 5))
	copyInto(t, s, "returns", data.ReturnsTable(150, 5, 3))

	multi := engine.NewMemTable("multisrc", tasks.DenseExampleSchema)
	err := data.Forest(200, 6).Scan(func(tp engine.Tuple) error {
		cls := 0.0
		if tp[2].Float > 0 {
			cls = 1
		}
		return multi.Insert(engine.Tuple{tp[0], tp[1], engine.F64(cls)})
	})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, s, "multi", multi)

	edges := engine.NewMemTable("edgesrc", tasks.RatingSchema)
	for i := 0; i < 12; i++ {
		edges.MustInsert(engine.Tuple{
			engine.I64(int64(i)), engine.I64(int64((i + 1) % 12)), engine.F64(1)})
	}
	copyInto(t, s, "edges", edges)

	fixtures := map[string]struct {
		table string
		extra string
	}{
		"lr":        {"dense", ""},
		"svm":       {"dense", ""},
		"lsq":       {"dense", ""},
		"lasso":     {"dense", ", mu=0.001"},
		"softmax":   {"multi", ""},
		"lmf":       {"ratings", ", rank=3"},
		"crf":       {"seqs", ""},
		"kalman":    {"series", ""},
		"portfolio": {"returns", ""},
		"maxcut":    {"edges", ", rank=3"},
	}

	for _, ts := range spec.Tasks() {
		fx, ok := fixtures[ts.Name]
		if !ok {
			t.Fatalf("task %q is registered but has no declarative fixture — add one", ts.Name)
		}
		out.Reset()
		stmt := fmt.Sprintf(`SELECT * FROM %s TO TRAIN %s WITH epochs=3%s INTO model_%s;`,
			fx.table, ts.Name, fx.extra, ts.Name)
		mustExec(t, s, stmt)
		if !strings.Contains(out.String(), "trained") {
			t.Fatalf("%s: output %q", ts.Name, out.String())
		}
		if _, err := s.Cat.Get("model_" + ts.Name); err != nil {
			t.Fatalf("%s: model not persisted", ts.Name)
		}
		// Every task must also round-trip through EVALUATE (metrics or the
		// loss fallback).
		out.Reset()
		mustExec(t, s, fmt.Sprintf(`SELECT * FROM %s TO EVALUATE USING model_%s;`,
			fx.table, ts.Name))
		if out.Len() == 0 {
			t.Fatalf("%s: empty EVALUATE output", ts.Name)
		}
	}
	if len(fixtures) != len(spec.Tasks()) {
		t.Fatalf("fixtures for %d tasks, registry has %d", len(fixtures), len(spec.Tasks()))
	}
}

// TestOrderingParallelSamplingKnobs exercises every ordering, parallelism,
// and sampling mode through WITH over the single dispatch path.
func TestOrderingParallelSamplingKnobs(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(300, 5))

	cases := []struct {
		with   string
		method string
	}{
		{"order=shuffle_once", "IGD"},
		{"order=shuffle_always", "IGD"},
		{"order=clustered", "IGD"},
		{"parallel=pure_uda, workers=2", "IGD"},
		{"parallel=lock, workers=2", "IGD/Lock×2"},
		{"parallel=aig, workers=2", "IGD/AIG×2"},
		{"parallel=nolock, workers=2", "IGD/NoLock×2"},
		{"mrs=64", "IGD/MRS(buf=64)"},
		{"reservoir=64", "IGD/Reservoir(buf=64)"},
		{"solver=batch", "BatchGD"},
		{"solver=irls", "IRLS"},
	}
	for i, c := range cases {
		out.Reset()
		stmt := fmt.Sprintf(`SELECT * FROM papers TO TRAIN lr WITH epochs=3, %s INTO km_%d;`, c.with, i)
		mustExec(t, s, stmt)
		if !strings.Contains(out.String(), "via "+c.method) {
			t.Fatalf("WITH %s: output %q does not mention %q", c.with, out.String(), c.method)
		}
	}

	// ALS is LMF's solver.
	copyInto(t, s, "ratings", data.MovieLens(20, 15, 300, 3, 0.2, 9))
	out.Reset()
	mustExec(t, s, `SELECT * FROM ratings TO TRAIN lmf WITH rank=3, epochs=3, solver=als INTO am;`)
	if !strings.Contains(out.String(), "via ALS") {
		t.Fatalf("als output: %s", out.String())
	}
}

// TestMRSBufferPastRowCountTrains: an mrs= buffer that holds the whole
// table makes each MRS pass one sweep of it, so the statement trains about
// as far as the same statement without mrs.
func TestMRSBufferPastRowCountTrains(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "forest", data.Forest(1500, 7))
	src, err := s.Cat.Get("forest")
	if err != nil {
		t.Fatal(err)
	}
	loss := func(with string) float64 {
		mustExec(t, s, "SELECT vec, label FROM forest TO TRAIN lr WITH epochs=300"+with+" INTO m;")
		snap, _, err := s.LoadSnapshot("m")
		if err != nil {
			t.Fatal(err)
		}
		l, err := core.TotalLoss(snap.Task, snap.W, src)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if plain, mrs := loss(""), loss(", mrs=2000"); mrs > 1.10*plain {
		t.Fatalf("mrs=2000 over 1500 rows: final loss %g, plain plan %g", mrs, plain)
	}
}

// TestDeclarativeErrors covers the statement-level failure modes.
func TestDeclarativeErrors(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(50, 5))

	cases := map[string]string{
		`SELECT * FROM papers TO TRAIN dnn INTO m`:                  "unknown task",
		`SELECT * FROM papers TO TRAIN lr WITH alpha='big' INTO m`:  "wants a number",
		`SELECT * FROM papers TO TRAIN lr WITH dim=1.5 INTO m`:      "wants an integer",
		`SELECT * FROM papers TO TRAIN lr WITH blobs=3 INTO m`:      "unknown parameter",
		`SELECT * FROM papers TO TRAIN lr WITH order=sorted INTO m`: "wants one of",
		`SELECT * FROM missing TO TRAIN lr INTO m`:                  "missing",
		`SELECT * FROM papers TO PREDICT USING nomodel`:             "nomodel",
		`SELECT vec FROM papers TO TRAIN lr LABEL label INTO m`:     "not in the SELECT list",
		`SELECT * FROM papers WHERE ghost = 1 TO TRAIN lr INTO m`:   "unknown column",
		`SELECT * FROM papers TO TRAIN lr WITH solver=als INTO m`:   "does not support solver",
		`SELECT * FROM papers TO TRAIN svm WITH solver=irls INTO m`: "does not support solver",
		// Knobs a solver never reads are refused, not ignored.
		`SELECT * FROM papers TO TRAIN lr WITH solver=irls, alpha=0.5 INTO m`: "ignores alpha",
		`SELECT * FROM papers TO TRAIN lr WITH solver=irls, seed=3 INTO m`:    "ignores seed",
		`SELECT * FROM papers TO TRAIN lmf WITH solver=als, alpha=0.5 INTO m`: "ignores alpha",
	}
	for stmt, want := range cases {
		err := s.Exec(stmt)
		if err == nil {
			t.Fatalf("%q: expected error", stmt)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: error %q does not mention %q", stmt, err, want)
		}
	}

	// CRF has no per-tuple score: PREDICT must point at EVALUATE.
	copyInto(t, s, "seqs", data.CoNLL(6, 20, 3, 4, 13))
	mustExec(t, s, `SELECT * FROM seqs TO TRAIN crf WITH epochs=2 INTO cm;`)
	err := s.Exec(`SELECT * FROM seqs TO PREDICT USING cm`)
	if err == nil || !strings.Contains(err.Error(), "does not support PREDICT") {
		t.Fatalf("crf predict: %v", err)
	}
}

// TestWhereAndThresholdKnob checks row filtering and the predict
// threshold knob.
func TestWhereAndThresholdKnob(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(400, 5))

	mustExec(t, s, `SELECT * FROM papers WHERE id < 200 TO TRAIN lr WITH epochs=8, alpha=0.2 INTO m;`)
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers WHERE id >= 200 TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "predicted 200 rows") {
		t.Fatalf("filtered predict: %s", out.String())
	}

	// threshold=1.01 over LR probabilities predicts nothing positive.
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT WITH threshold=1.01 USING m;`)
	if !strings.Contains(out.String(), ": 0 positive") {
		t.Fatalf("threshold predict: %s", out.String())
	}
}

// TestFileCatalogPersistence round-trips a declaratively trained model
// through an on-disk catalog: train, close, reopen, predict.
func TestFileCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := &Session{Cat: cat, Out: &out}
	dst, err := cat.Create("papers", tasks.DenseExampleSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Forest(300, 5).CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `SELECT * FROM papers TO TRAIN svm WITH epochs=8, alpha=0.2 INTO m;`)
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	out.Reset()
	s2 := &Session{Cat: cat2, Out: &out}
	mustExec(t, s2, `SELECT * FROM papers TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "accuracy") {
		t.Fatalf("reopened predict: %s", out.String())
	}
}

// TestShowTasks lists the registry.
func TestShowTasks(t *testing.T) {
	s, out := declSession(t)
	mustExec(t, s, `SHOW TASKS;`)
	for _, name := range []string{"lr", "svm", "lmf", "crf", "kalman", "portfolio", "maxcut", "softmax", "lasso", "lsq"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("SHOW TASKS missing %q:\n%s", name, out.String())
		}
	}
}

// TestLegacyQuotedComma is the parseArgs regression at the session level:
// a model name containing a comma survives the legacy path.
func TestLegacyQuotedComma(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))
	mustExec(t, s, `SELECT LRTrain('my,model', 'papers', 'vec', 'label')`)
	if _, err := s.Cat.Get("my,model"); err != nil {
		t.Fatal("comma-named model not persisted")
	}
}

// TestPredictWiderVectors is the regression for the slice-bounds panic:
// predicting over vectors wider than the trained model must clamp, not
// panic.
func TestPredictWiderVectors(t *testing.T) {
	s, out := declSession(t)

	narrow := engine.NewMemTable("narrowsrc", tasks.DenseExampleSchema)
	wide := engine.NewMemTable("widesrc", tasks.DenseExampleSchema)
	for i := 0; i < 60; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		narrow.MustInsert(engine.Tuple{
			engine.I64(int64(i)), engine.DenseV([]float64{y, -y, y * 0.5}), engine.F64(y)})
		wide.MustInsert(engine.Tuple{
			engine.I64(int64(i)), engine.DenseV([]float64{y, -y, y * 0.5, 9, 9, 9, 9, 9}), engine.F64(y)})
	}
	copyInto(t, s, "narrow", narrow)
	copyInto(t, s, "wide", wide)

	mustExec(t, s, `SELECT * FROM narrow TO TRAIN lr WITH epochs=5 INTO m;`)
	out.Reset()
	mustExec(t, s, `SELECT * FROM wide TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "predicted 60 rows") {
		t.Fatalf("wide predict: %s", out.String())
	}
	out.Reset()
	mustExec(t, s, `SELECT * FROM wide TO EVALUATE USING m;`)
	if !strings.Contains(out.String(), "accuracy=") {
		t.Fatalf("wide evaluate: %s", out.String())
	}
}

// TestEvaluateThresholdKnob checks WITH threshold reaches the binary
// Evaluate hook rather than being silently dropped.
func TestEvaluateThresholdKnob(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(200, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=8, alpha=0.2 INTO m;`)

	// An impossible threshold forces every prediction negative: recall 0.
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO EVALUATE WITH threshold=1.01 USING m;`)
	if !strings.Contains(out.String(), "recall=0.0000") {
		t.Fatalf("threshold evaluate: %s", out.String())
	}
}

// TestPredictIntoPreservedOnFailure checks a failing PREDICT INTO does not
// clobber the existing destination table.
func TestPredictIntoPreservedOnFailure(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=5 INTO m;`)
	mustExec(t, s, `SELECT * FROM papers TO PREDICT INTO scores USING m;`)

	empty := engine.NewMemTable("emptysrc", tasks.DenseExampleSchema)
	copyInto(t, s, "empty", empty)
	if err := s.Exec(`SELECT * FROM empty TO PREDICT INTO scores USING m;`); err == nil {
		t.Fatal("predict over empty table should fail")
	}
	scores, err := s.Cat.Get("scores")
	if err != nil {
		t.Fatal("scores table destroyed by failing statement")
	}
	if scores.NumRows() != 100 {
		t.Fatalf("scores rows after failed statement: %d", scores.NumRows())
	}
}

// TestTrainWithSmallerDim is the regression for the WITH dim panic: a dim
// smaller than the dense feature width must truncate features, not crash.
func TestTrainWithSmallerDim(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=3, dim=3 INTO m;`)
	if !strings.Contains(out.String(), "LR trained") {
		t.Fatalf("train output: %s", out.String())
	}
	// Multiclass models have per-class blocks; truncation must not corrupt
	// or overrun neighbouring classes either.
	multi := engine.NewMemTable("multisrc2", tasks.DenseExampleSchema)
	err := data.Forest(100, 6).Scan(func(tp engine.Tuple) error {
		cls := 0.0
		if tp[2].Float > 0 {
			cls = 1
		}
		return multi.Insert(engine.Tuple{tp[0], tp[1], engine.F64(cls)})
	})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, s, "multi2", multi)
	mustExec(t, s, `SELECT * FROM multi2 TO TRAIN softmax WITH epochs=3, dim=3 INTO sm;`)
	mustExec(t, s, `SELECT * FROM multi2 TO EVALUATE USING sm;`)
}

// TestPredictNoLabelGuess checks PREDICT does not adopt an arbitrary float
// column as the label: without a column named like the task's label (or an
// explicit LABEL clause), no accuracy is reported.
func TestPredictNoLabelGuess(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=5 INTO m;`)

	// (id, vec, score): score is NOT a label and must not be treated as one.
	scored := engine.NewMemTable("scoredsrc", engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "vec", Type: engine.TDenseVec},
		{Name: "score", Type: engine.TFloat64},
	})
	err := data.Forest(50, 7).Scan(func(tp engine.Tuple) error {
		return scored.Insert(engine.Tuple{tp[0], tp[1], engine.F64(0.123)})
	})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, s, "scored", scored)

	out.Reset()
	mustExec(t, s, `SELECT * FROM scored TO PREDICT USING m;`)
	got := out.String()
	if strings.Contains(got, "accuracy") {
		t.Fatalf("accuracy fabricated from a non-label column: %s", got)
	}
	if !strings.Contains(got, "predicted 50 rows") {
		t.Fatalf("predict output: %s", got)
	}

	// An explicit LABEL clause still opts in.
	out.Reset()
	mustExec(t, s, `SELECT * FROM scored TO PREDICT LABEL score USING m;`)
	if !strings.Contains(out.String(), "accuracy") {
		t.Fatalf("explicit LABEL ignored: %s", out.String())
	}
}

// TestPredictZeroOneLabels checks the accuracy summary accepts the 0/1
// label convention (not just ±1).
func TestPredictZeroOneLabels(t *testing.T) {
	s, out := declSession(t)
	zo := engine.NewMemTable("zosrc", tasks.DenseExampleSchema)
	err := data.Forest(200, 5).Scan(func(tp engine.Tuple) error {
		y := 0.0
		if tp[2].Float > 0 {
			y = 1
		}
		return zo.Insert(engine.Tuple{tp[0], tp[1], engine.F64(y)})
	})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, s, "papers01", zo)
	// Train on the ±1 version of the same data, predict on the 0/1 table.
	copyInto(t, s, "papers", data.Forest(200, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN svm WITH epochs=8, alpha=0.2 INTO m;`)
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers01 TO PREDICT USING m;`)
	m := regexp.MustCompile(`accuracy ([0-9.]+)%`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("predict output: %s", out.String())
	}
	if acc, _ := strconv.ParseFloat(m[1], 64); acc < 75 {
		t.Fatalf("0/1-label accuracy %.1f%% too low: %s", acc, out.String())
	}
}

// TestSolverRejectsIgnoredKnobs checks non-IGD solvers refuse IGD-only
// knobs instead of silently ignoring them.
func TestSolverRejectsIgnoredKnobs(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "ratings", data.MovieLens(20, 15, 300, 3, 0.2, 9))
	err := s.Exec(`SELECT * FROM ratings TO TRAIN lmf WITH rank=3, solver=als, order=clustered INTO m;`)
	if err == nil || !strings.Contains(err.Error(), "ignores order") {
		t.Fatalf("als+order: %v", err)
	}
	err = s.Exec(`SELECT * FROM ratings TO TRAIN lmf WITH rank=3, solver=als, step=diminishing INTO m;`)
	if err == nil || !strings.Contains(err.Error(), "ignores step") {
		t.Fatalf("als+step: %v", err)
	}
}

// TestALSTrainsTheStatementsTask checks solver=als starts from and reports
// the task the statement built: init_scale picks the initial factors, and
// the reply's loss is the task's whole objective, mu penalty included.
func TestALSTrainsTheStatementsTask(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "ratings", data.MovieLens(20, 15, 300, 3, 0.2, 9))
	train := func(with string) *ModelSnapshot {
		out.Reset()
		mustExec(t, s, `SELECT * FROM ratings TO TRAIN lmf WITH rank=3, epochs=3, solver=als, `+with+` INTO m;`)
		snap, _, err := s.LoadSnapshot("m")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if small, large := train("init_scale=0.1"), train("init_scale=0.5"); modelFP(small.W) == modelFP(large.W) {
		t.Fatal("init_scale=0.5 trained the same model as init_scale=0.1")
	}

	snap := train("mu=0.1")
	src, err := s.Cat.Get("ratings")
	if err != nil {
		t.Fatal(err)
	}
	loss, err := core.TotalLoss(snap.Task, snap.W, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("final loss %.6g;", loss); !strings.Contains(out.String(), want) {
		t.Fatalf("reply %q does not report the objective (%s)", out.String(), want)
	}
}

// TestKnobRejectionAndStaleMeta covers the remaining silent-ignore holes:
// sampling trainers reject ordering/tolerance knobs, PREDICT rejects
// training knobs, and overwriting a model table via PREDICT INTO removes
// its metadata rather than leaving it stale.
func TestKnobRejectionAndStaleMeta(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(100, 5))
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=5 INTO m;`)

	err := s.Exec(`SELECT * FROM papers TO TRAIN lr WITH mrs=32, order=clustered INTO x;`)
	if err == nil || !strings.Contains(err.Error(), "ignores order") {
		t.Fatalf("mrs+order: %v", err)
	}
	err = s.Exec(`SELECT * FROM papers TO TRAIN lr WITH reservoir=32, tol=0.1 INTO x;`)
	if err == nil || !strings.Contains(err.Error(), "ignores tol") {
		t.Fatalf("reservoir+tol: %v", err)
	}
	err = s.Exec(`SELECT * FROM papers TO PREDICT WITH epochs=5 USING m;`)
	if err == nil || !strings.Contains(err.Error(), "only threshold") {
		t.Fatalf("predict+epochs: %v", err)
	}

	// Clobber a model with prediction output: its metadata must go too.
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=5 INTO victim;`)
	mustExec(t, s, `SELECT * FROM papers TO PREDICT INTO victim USING m;`)
	err = s.Exec(`SELECT * FROM papers TO PREDICT USING victim;`)
	if err == nil || !strings.Contains(err.Error(), "no metadata") {
		t.Fatalf("stale meta: %v", err)
	}
}

// TestFileCatalogRetrainReplacesModel is the file-backed stale-heap
// regression: retraining a different task INTO the same model name must
// fully replace both the coefficient table and the metadata on disk.
func TestFileCatalogRetrainReplacesModel(t *testing.T) {
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	var out bytes.Buffer
	s := &Session{Cat: cat, Out: &out}

	papers, err := cat.Create("papers", tasks.DenseExampleSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Forest(150, 5).CopyTo(papers); err != nil {
		t.Fatal(err)
	}
	ratings, err := cat.Create("ratings", tasks.RatingSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.MovieLens(20, 15, 300, 3, 0.2, 9).CopyTo(ratings); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, `SELECT * FROM ratings TO TRAIN lmf WITH rank=3, epochs=3 INTO m;`)
	mustExec(t, s, `SELECT * FROM papers TO TRAIN lr WITH epochs=5 INTO m;`)
	out.Reset()
	// Stale lmf rows in m__meta would make this fail with unknown params.
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "accuracy") {
		t.Fatalf("retrained predict: %s", out.String())
	}

	// Re-running PREDICT INTO must replace, not append.
	mustExec(t, s, `SELECT * FROM papers TO PREDICT INTO scores USING m;`)
	mustExec(t, s, `SELECT * FROM papers TO PREDICT INTO scores USING m;`)
	scores, err := cat.Get("scores")
	if err != nil {
		t.Fatal(err)
	}
	if scores.NumRows() != 150 {
		t.Fatalf("scores rows after rerun: %d (stale heap rows survived)", scores.NumRows())
	}
}

// TestTrainRejectsThreshold keeps TRAIN from silently dropping the
// scoring-time threshold knob.
func TestTrainRejectsThreshold(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(50, 5))
	err := s.Exec(`SELECT * FROM papers TO TRAIN lr WITH threshold=0.7 INTO m;`)
	if err == nil || !strings.Contains(err.Error(), "threshold applies to PREDICT") {
		t.Fatalf("train+threshold: %v", err)
	}
}
