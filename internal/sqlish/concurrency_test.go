package sqlish

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
)

// testGuard is a minimal per-name RW-lock Guard (the server package ships
// the production implementation; sqlish cannot import it without a cycle).
type testGuard struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex
}

func newTestGuard() *testGuard { return &testGuard{locks: map[string]*sync.RWMutex{}} }

func (g *testGuard) get(name string) *sync.RWMutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.locks[name]
	if !ok {
		l = &sync.RWMutex{}
		g.locks[name] = l
	}
	return l
}

func (g *testGuard) Lock(k LockKey) func()  { l := g.get(k.name); l.Lock(); return l.Unlock }
func (g *testGuard) RLock(k LockKey) func() { l := g.get(k.name); l.RLock(); return l.RUnlock }

// TestUnknownModelError pins the typed error of the satellite fix: a
// PREDICT/EVALUATE against a never-trained model must surface as
// *UnknownModelError carrying the name and the SHOW MODELS hint, not as a
// raw catalog error.
func TestUnknownModelError(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(50, 5))

	for _, stmt := range []string{
		`SELECT * FROM papers TO PREDICT USING ghost;`,
		`SELECT * FROM papers TO EVALUATE USING ghost;`,
	} {
		err := s.Exec(stmt)
		var ume *UnknownModelError
		if !errors.As(err, &ume) {
			t.Fatalf("%s\n=> %v (want *UnknownModelError)", stmt, err)
		}
		if ume.Model != "ghost" {
			t.Fatalf("error names model %q", ume.Model)
		}
		if !strings.Contains(err.Error(), "SHOW MODELS") {
			t.Fatalf("error misses the SHOW MODELS hint: %v", err)
		}
	}

	// A model table without metadata is a different failure and must keep
	// its specific message.
	if _, err := s.Cat.Create("orphan", ModelSchema); err != nil {
		t.Fatal(err)
	}
	err := s.Exec(`SELECT * FROM papers TO PREDICT USING orphan;`)
	var ume *UnknownModelError
	if errors.As(err, &ume) || err == nil || !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("orphan model: %v", err)
	}
}

// TestShowModels lists trained models with their task names.
func TestShowModels(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(80, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO alpha;`)
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN svm WITH epochs=2 INTO beta;`)

	out.Reset()
	mustExec(t, s, `SHOW MODELS;`)
	got := out.String()
	if !strings.Contains(got, "alpha") || !strings.Contains(got, "task=lr") ||
		!strings.Contains(got, "beta") || !strings.Contains(got, "task=svm") {
		t.Fatalf("SHOW MODELS output:\n%s", got)
	}
	if strings.Contains(got, "papers") {
		t.Fatalf("data table listed as a model:\n%s", got)
	}
}

// cancelGuard is a testGuard that cancels a statement's ctx the moment
// the exclusive lock of one name is requested.
type cancelGuard struct {
	*testGuard
	name   string
	cancel context.CancelFunc
}

func (g cancelGuard) Lock(k LockKey) func() {
	if k.name == g.name {
		g.cancel()
	}
	return g.testGuard.Lock(k)
}

// TestCancelAtSwapKeepsPreviousGeneration: a cancel that lands when a
// TRAIN asks for its model's name lock — after training and the shadow
// fill, right before the commit — discards the trained result. The old
// generation keeps scoring and no __shadow table is left behind.
func TestCancelAtSwapKeepsPreviousGeneration(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(120, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`)
	before := out.String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Guard = cancelGuard{newTestGuard(), "m", cancel}
	st, err := spec.Parse(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=9, seed=2 INTO m;`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx, st); !errors.Is(err, context.Canceled) {
		t.Fatalf("train: %v", err)
	}
	for _, name := range s.Cat.Names() {
		if strings.Contains(name, engine.ShadowSuffix) {
			t.Fatalf("canceled save left %q in the catalog", name)
		}
	}

	// The first generation must still load and score.
	out.Reset()
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
	if !strings.Contains(out.String(), "predicted 120 rows") {
		t.Fatalf("old model gone: %s\n(before: %s)", out.String(), before)
	}
}

// TestCanceledCtxStopsPredictAndEvaluate: PREDICT and EVALUATE check their
// ctx once the model is restored, before the scoring pass, so a done ctx
// returns context.Canceled with nothing printed and no table written.
func TestCanceledCtxStopsPredictAndEvaluate(t *testing.T) {
	s, out := declSession(t)
	copyInto(t, s, "papers", data.Forest(120, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=3, seed=1 INTO m;`)
	tables := len(s.Cat.Names())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, text := range []string{
		`SELECT * FROM papers TO PREDICT USING m;`,
		`SELECT * FROM papers TO PREDICT INTO scores USING m;`,
		`SELECT * FROM papers TO EVALUATE USING m;`,
	} {
		st, err := spec.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := s.Run(ctx, st); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s\n=> %v, want context.Canceled", text, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s printed %q under a canceled ctx", text, out.String())
		}
	}
	if names := s.Cat.Names(); len(names) != tables {
		t.Fatalf("canceled statements changed the catalog: %v", names)
	}
}

// TestReplaceTableTornReadRegression is the satellite regression test: one
// session keeps replacing a result table via PREDICT ... INTO out while
// others project views FROM it. Under the shared Guard every reader must
// see either a complete generation (exactly N rows) or no table at all —
// never a half-replaced heap — and the race detector must stay quiet.
func TestReplaceTableTornReadRegression(t *testing.T) {
	cat := engine.NewCatalog()
	guard := newTestGuard()
	writer := &Session{Cat: cat, Out: &bytes.Buffer{}, Guard: guard}
	copyInto(t, writer, "papers", data.Forest(200, 5))
	mustExec(t, writer, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO m;`)

	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := writer.Exec(`SELECT * FROM papers TO PREDICT INTO out USING m;`); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	// Readers project (id, score) views straight off the contested table.
	readSchema := engine.Schema{
		{Name: "id", Type: engine.TInt64},
		{Name: "score", Type: engine.TFloat64},
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader := &Session{Cat: cat, Out: &bytes.Buffer{}, Guard: guard}
			st := &spec.Statement{Kind: spec.KindPredict, From: "out"}
			for i := 0; i < rounds; i++ {
				view, err := reader.projectFrom(st, readSchema, spec.ViewOptions{})
				if err != nil {
					// Before the first generation lands the table is absent;
					// that is the only acceptable error.
					if strings.Contains(err.Error(), `no table "out"`) {
						continue
					}
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
				if n := view.Table.NumRows(); n != 200 {
					errs <- fmt.Errorf("torn read: view has %d rows, want 200", n)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLockKeyCollapsesMetaSuffix: a model table, its metadata side table,
// and any deeper __meta chain must contend on one lock key, or a writer
// holding the model lock could race a reader locking the side table
// directly.
func TestLockKeyCollapsesMetaSuffix(t *testing.T) {
	for name, want := range map[string]string{
		"m":             "m",
		"m__meta":       "m",
		"m__meta__meta": "m",
		"meta":          "meta",
		"x__metaphor":   "x__metaphor",
		"__meta":        "",
	} {
		if got := NewLockKey(name).String(); got != want {
			t.Errorf("NewLockKey(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestWithLockRefusesNesting: a session holds one exclusive name lock at
// a time. A second one requested inside it fails, naming both keys, before
// it locks — with or without a Guard — and the one allowed pair, a name
// inside its own shadow's lock, is fillAndSwap's commit.
func TestWithLockRefusesNesting(t *testing.T) {
	for _, guard := range []Guard{nil, newTestGuard()} {
		s := &Session{Cat: engine.NewCatalog(), Out: &bytes.Buffer{}, Guard: guard}
		for _, pair := range [][2]string{
			{"a", "b"},
			{"a", "a"},
			{"m", shadowName("m")},
			{shadowName("m"), "n"},
		} {
			ran := false
			err := s.withLock(pair[0], func() error {
				return s.withLock(pair[1], func() error { ran = true; return nil })
			})
			if err == nil || ran {
				t.Fatalf("guard %T: withLock(%q) inside withLock(%q) ran (err %v), want refused", guard, pair[1], pair[0], err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", pair[0])) || !strings.Contains(msg, fmt.Sprintf("%q", pair[1])) {
				t.Fatalf("guard %T: nesting error %q does not name both keys", guard, msg)
			}
		}
		ran := false
		err := s.withLock(shadowName("m"), func() error {
			return s.withLock("m", func() error { ran = true; return nil })
		})
		if err != nil || !ran {
			t.Fatalf("guard %T: name inside its shadow's lock: ran=%v err=%v, want allowed", guard, ran, err)
		}
		if s.held != (LockKey{}) {
			t.Fatalf("guard %T: session still records %q held after every scope returned", guard, s.held)
		}
	}
}

// TestValidateNamesEnforcedAtRun: the session layer enforces the name
// rules itself — spec.Statement is exported, so a programmatically built
// statement must not bypass the parser's checks.
func TestValidateNamesEnforcedAtRun(t *testing.T) {
	s, _ := declSession(t)
	copyInto(t, s, "papers", data.Forest(60, 5))

	// __meta aliasing via a hand-built statement.
	err := s.Run(context.Background(), &spec.Statement{Kind: spec.KindTrain, From: "papers",
		Task: "lr", Into: "x__meta"})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("programmatic __meta INTO: %v", err)
	}
	// Path tricks likewise.
	err = s.Run(context.Background(), &spec.Statement{Kind: spec.KindTrain, From: "papers",
		Task: "lr", Into: "../evil"})
	if err == nil || !strings.Contains(err.Error(), "invalid table name") {
		t.Fatalf("programmatic traversal INTO: %v", err)
	}

	// PREDICT INTO its own model would drop the model for the score table.
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2 INTO m;`)
	err = s.Run(context.Background(), &spec.Statement{Kind: spec.KindPredict, From: "papers",
		Model: "m", Into: "m"})
	if err == nil || !strings.Contains(err.Error(), "overwrite the model") {
		t.Fatalf("self-destructive predict: %v", err)
	}
	if err := s.Exec(`SELECT * FROM papers TO PREDICT INTO m USING m;`); err == nil {
		t.Fatal("parsed self-destructive predict accepted")
	}
	// INTO the FROM source would drop the dataset.
	err = s.Run(context.Background(), &spec.Statement{Kind: spec.KindTrain, From: "papers",
		Task: "lr", Into: "papers"})
	if err == nil || !strings.Contains(err.Error(), "overwrite the FROM") {
		t.Fatalf("self-destructive train INTO source: %v", err)
	}
	// The model survived all of the rejected statements.
	mustExec(t, s, `SELECT * FROM papers TO PREDICT USING m;`)
}

// TestCaseCollisionRejectedBeforeTraining: on a file catalog, INTO a name
// differing from an existing table only by case fails up front (the heap
// files would collide on a case-insensitive filesystem) — not after the
// training run.
func TestCaseCollisionRejectedBeforeTraining(t *testing.T) {
	cat, err := engine.OpenFileCatalog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Session{Cat: cat, Out: &bytes.Buffer{}}
	copyInto(t, s, "papers", data.Forest(60, 5))
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO forest;`)

	err = s.Exec(`SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO Forest;`)
	if err == nil || !strings.Contains(err.Error(), "case-insensitively") {
		t.Fatalf("case collision: %v", err)
	}
	// Retraining under the exact same name stays legal.
	mustExec(t, s, `SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO forest;`)
}
