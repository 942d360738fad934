package spec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// withValue returns the value of a WITH key, if present.
func withValue(st *Statement, key string) (Literal, bool) {
	for _, p := range st.With {
		if p.Key == key {
			return p.Val, true
		}
	}
	return Literal{}, false
}

func TestParseTrainFull(t *testing.T) {
	st, err := Parse(`SELECT vec, label FROM papers
		WHERE split = 'train' AND weight >= 0.5
		TO TRAIN svm
		WITH alpha=0.1, decay=0.9, step=geometric, epochs=30, tol=0.001,
		     seed=7, order=shuffle_once, parallel=nolock, workers=4, mu=0.01
		COLUMN vec
		LABEL label
		INTO myModel;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindTrain || st.Task != "svm" || st.From != "papers" || st.Into != "myModel" {
		t.Fatalf("bad statement: %+v", st)
	}
	if len(st.Select) != 2 || st.Select[0] != "vec" || st.Select[1] != "label" {
		t.Fatalf("select: %v", st.Select)
	}
	if len(st.Where) != 2 || st.Where[0].Col != "split" || st.Where[0].Op != "=" ||
		st.Where[1].Col != "weight" || st.Where[1].Op != ">=" || st.Where[1].Val.Num != 0.5 {
		t.Fatalf("where: %+v", st.Where)
	}
	if len(st.With) != 10 {
		t.Fatalf("with: %+v", st.With)
	}
	if v, ok := withValue(st, "alpha"); !ok || v.Num != 0.1 {
		t.Fatalf("alpha: %+v", v)
	}
	if v, ok := withValue(st, "workers"); !ok || !v.IsInt || v.Int != 4 {
		t.Fatalf("workers: %+v", v)
	}
	if v, ok := withValue(st, "order"); !ok || v.Str != "shuffle_once" {
		t.Fatalf("order: %+v", v)
	}
	if len(st.Columns) != 1 || st.Columns[0] != "vec" || st.Label != "label" {
		t.Fatalf("columns/label: %v %q", st.Columns, st.Label)
	}
}

// TestParseEveryKnob parses a statement carrying every uniform WITH knob
// and checks it binds cleanly.
func TestParseEveryKnob(t *testing.T) {
	cases := map[string]string{
		KnobAlpha:     "alpha=0.05",
		KnobDecay:     "decay=0.9",
		KnobStep:      "step=diminishing",
		KnobEpochs:    "epochs=5",
		KnobTol:       "tol=0.001",
		KnobSeed:      "seed=42",
		KnobOrder:     "order=shuffle_always",
		KnobParallel:  "parallel=aig",
		KnobWorkers:   "workers=2",
		KnobMRS:       "mrs=100",
		KnobReservoir: "reservoir=0",
		KnobSolver:    "solver=igd",
		KnobThreshold: "threshold=0.5",
	}
	for key, kv := range cases {
		st, err := Parse("SELECT * FROM t TO TRAIN lr WITH " + kv + " INTO m")
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if _, ok := withValue(st, key); !ok {
			t.Fatalf("%s: knob not captured", key)
		}
		if _, _, err := SplitKnobs(st.With); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
}

func TestParsePredictAndEvaluate(t *testing.T) {
	st, err := Parse(`SELECT * FROM holdout TO PREDICT WITH threshold=0.7 INTO scores USING m;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindPredict || st.Model != "m" || st.Into != "scores" {
		t.Fatalf("predict: %+v", st)
	}
	st, err = Parse(`SELECT row, col, rating FROM ratings WHERE fold = 0 TO EVALUATE USING mf`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindEvaluate || st.Model != "mf" || len(st.Where) != 1 {
		t.Fatalf("evaluate: %+v", st)
	}
}

func TestParsePointPredict(t *testing.T) {
	st, err := Parse(`PREDICT (1.5, -2, 3e-1) USING m;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindPointPredict || st.Model != "m" || len(st.Points) != 1 {
		t.Fatalf("point predict: %+v", st)
	}
	if got := st.Points[0]; len(got) != 3 || got[0] != 1.5 || got[1] != -2 || got[2] != 0.3 {
		t.Fatalf("values: %v", got)
	}

	st, err = Parse(`PREDICT VALUES (1, 2), (3, 4), (5, 6) USING 'my model'`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindPointPredict || st.Model != "my model" || len(st.Points) != 3 {
		t.Fatalf("batched point predict: %+v", st)
	}
	if st.Points[2][1] != 6 {
		t.Fatalf("values: %v", st.Points)
	}
}

func TestParsePointPredictErrors(t *testing.T) {
	for src, wantSub := range map[string]string{
		"PREDICT () USING m;":                 "empty tuple",
		"PREDICT VALUES () USING m;":          "empty tuple",
		"PREDICT VALUES (1, 2), (3) USING m;": "arity mismatch",
		"PREDICT (1, 2);":                     "USING",
		"PREDICT USING m;":                    `"("`,
		"PREDICT ('a') USING m;":              "numeric",
		"PREDICT (1) USING m__meta;":          "reserved",
		"PREDICT (1) USING m__shadow;":        "reserved",
		// VALUES does not graft onto the table form.
		"SELECT * FROM t TO PREDICT VALUES (1, 2) USING m;": "inline point form",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) = %v, want mention of %q", src, err, wantSub)
		}
	}
}

func TestValidatePointsCaps(t *testing.T) {
	big := make([]float64, MaxPointValues+1)
	if err := ValidatePoints([][]float64{big}); err == nil {
		t.Error("oversized tuple accepted")
	}
	batch := make([][]float64, MaxPointBatch+1)
	for i := range batch {
		batch[i] = []float64{1}
	}
	if err := ValidatePoints(batch); err == nil {
		t.Error("oversized batch accepted")
	}
	if err := ValidatePoints(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := ValidatePoints([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid points rejected: %v", err)
	}
}

func TestParseShow(t *testing.T) {
	for src, kind := range map[string]Kind{
		"SHOW TABLES;":     KindShowTables,
		"show tasks":       KindShowTasks,
		"SELECT Tables();": KindShowTables,
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if st.Kind != kind {
			t.Fatalf("%q: kind %v", src, st.Kind)
		}
	}
}

func TestParseLegacyLowering(t *testing.T) {
	st, err := Parse(`SELECT SVMTrain('myModel', 'papers', 'vec', 'label');`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindTrain || st.Task != "svm" || st.From != "papers" ||
		st.Into != "myModel" || st.Label != "label" ||
		len(st.Columns) != 1 || st.Columns[0] != "vec" {
		t.Fatalf("lowered: %+v", st)
	}

	st, err = Parse(`SELECT LMFTrain('mf', 'ratings', 40, 30, 4)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Task != "lmf" {
		t.Fatalf("task: %q", st.Task)
	}
	for key, want := range map[string]int64{"rows": 40, "cols": 30, "rank": 4} {
		if v, ok := withValue(st, key); !ok || v.Int != want {
			t.Fatalf("%s: %+v", key, v)
		}
	}

	st, err = Parse(`SELECT Predict('m', 'papers', 'vec')`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindPredict || st.Model != "m" {
		t.Fatalf("predict: %+v", st)
	}
}

// TestParseQuotedCommas is the parseArgs regression: quoted arguments
// containing commas (and escaped quotes) must survive intact.
func TestParseQuotedCommas(t *testing.T) {
	st, err := Parse(`SELECT SVMTrain('my,model', 'o''brien,''s table', 'vec', 'label')`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Into != "my,model" {
		t.Fatalf("model: %q", st.Into)
	}
	if st.From != "o'brien,'s table" {
		t.Fatalf("table: %q", st.From)
	}
	// Backslash escapes work too.
	st, err = Parse(`SELECT SVMTrain('it\'s', 't', 'v', 'l')`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Into != "it's" {
		t.Fatalf("model: %q", st.Into)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"DROP TABLE x":                                     "expected SELECT, SHOW, CHECK, WAIT, CANCEL or PREDICT",
		"SELECT * FROM t TO TRAIN lr":                      "INTO",
		"SELECT * FROM t TO PREDICT":                       "USING",
		"SELECT * FROM t TO EXPLAIN lr INTO m":             "TRAIN, PREDICT or EVALUATE",
		"SELECT * FROM t TO TRAIN lr WITH alpha INTO m":    `"="`,
		"SELECT * FROM t TO TRAIN lr WITH a=1, a=2 INTO m": "duplicate WITH",
		"SELECT * FROM t TO TRAIN lr INTO m INTO n":        "duplicate INTO",
		"SELECT * FROM t TO TRAIN lr INTO m USING q":       "does not take USING",
		"SELECT * FROM t TO EVALUATE INTO m USING q":       "does not take INTO",
		"SELECT * FROM t WHERE a ~ 1 TO TRAIN lr INTO m":   "unexpected character",
		"SELECT LRTrain('only-two', 'args')":               "needs",
		"SELECT LMFTrain('m', 't', 'x', 'y', 'z')":         "must be an integer",
		"SELECT NoSuchFunc('a')":                           "unknown function",
		"SELECT * FROM t TO TRAIN lr INTO 'm":              "unterminated string",
		"SELECT * FROM t TO TRAIN lr INTO m extra":         "trailing input",
	}
	for src, want := range cases {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("%q: expected error", src)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: error %q does not mention %q", src, err, want)
		}
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := lex("SELECT 'never closed"); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("err: %v", err)
	}
}

func TestLexComments(t *testing.T) {
	st, err := Parse("SELECT * FROM t -- a comment\nTO TRAIN lr INTO m -- done")
	if err != nil {
		t.Fatal(err)
	}
	if st.Task != "lr" || st.Into != "m" {
		t.Fatalf("statement: %+v", st)
	}
}

func TestSplitStatements(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SHOW TASKS; SHOW TABLES;", []string{"SHOW TASKS;", "SHOW TABLES;"}},
		{"SHOW TABLES", []string{"SHOW TABLES"}},
		{"SELECT f('a;b'); SHOW TABLES;", []string{"SELECT f('a;b');", "SHOW TABLES;"}},
		{"SELECT f('it''s;ok');", []string{"SELECT f('it''s;ok');"}},
		{"SHOW TABLES; -- check holdout", []string{"SHOW TABLES;"}},
		{"-- todo; later\nSHOW TABLES;", []string{"-- todo; later\nSHOW TABLES;"}},
		{"   ;  ; ", nil},
		{"-- only a comment", nil},
		{"SELECT 'unterminated", []string{"SELECT 'unterminated"}},
	}
	for _, c := range cases {
		got := SplitStatements(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitStatements(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

// TestParseAsyncAndJobStatements covers the server-oriented grammar: the
// ASYNC tail clause on TRAIN and the SHOW/WAIT/CANCEL job statements.
func TestParseAsyncAndJobStatements(t *testing.T) {
	st, err := Parse(`SELECT vec, label FROM papers TO TRAIN svm WITH epochs=50 INTO m ASYNC;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindTrain || !st.Async || st.Into != "m" {
		t.Fatalf("async train: %+v", st)
	}
	// ASYNC composes with clauses in any order.
	st, err = Parse(`SELECT * FROM t TO TRAIN lr ASYNC INTO m`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Async || st.Into != "m" {
		t.Fatalf("async before INTO: %+v", st)
	}

	for src, want := range map[string]Kind{
		"SHOW MODELS;":   KindShowModels,
		"SHOW JOBS;":     KindShowJobs,
		"SHOW SERVING;":  KindShowServing,
		"show serving":   KindShowServing,
		"WAIT JOB 3;":    KindWaitJob,
		"CANCEL JOB 12;": KindCancelJob,
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if st.Kind != want {
			t.Fatalf("%s parsed as %v, want %v", src, st.Kind, want)
		}
	}
	if st, _ := Parse("WAIT JOB 3;"); st.JobID != 3 {
		t.Fatalf("job id: %+v", st)
	}

	for _, bad := range []string{
		"SELECT * FROM t TO PREDICT USING m ASYNC;", // ASYNC is TRAIN-only
		"SELECT * FROM t TO TRAIN svm INTO m ASYNC ASYNC;",
		"WAIT JOB;",
		"WAIT JOB -1;",
		"WAIT JOB 1.5;",
		"CANCEL JOB m;",
		"SHOW JOB 1;",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestIncomplete pins the lexer-completeness probe the line front ends
// share: only an open string literal counts as incomplete.
func TestIncomplete(t *testing.T) {
	for text, want := range map[string]bool{
		"SELECT * FROM t TO TRAIN lr INTO 'a;":    true,
		"INTO 'it''s still open;":                 true,
		"SELECT * FROM t;":                        false,
		"SELECT * FROM t TO TRAIN lr INTO 'a;b';": false,
		"":              false,
		"bad ? char;":   false, // not repairable by more input
		"SELECT ? 'abc": true,  // lex error before the quote must not mask the open string
	} {
		if got := Incomplete(text); got != want {
			t.Errorf("Incomplete(%q) = %v, want %v", text, got, want)
		}
	}
}

// TestTermScannerAgreesWithLexer cross-checks the streaming automaton
// against the real lexer, its ground truth: wherever lex succeeds, the
// scanner's terminator verdict must match the last token, and wherever
// lex reports an open string the scanner must be inString.
func TestTermScannerAgreesWithLexer(t *testing.T) {
	for _, text := range append(append([]string{}, seedStatements...),
		"SELECT 'a;\nb';", "INTO 'x''y';", "INTO 'x\\'y';", "-- c;\nSHOW TABLES;",
		"a; b", "a;\n-- done", "';' ';';", "'open", "ok; 'open",
	) {
		var ts TermScanner
		ts.Write(text)
		toks, err := lex(text)
		switch {
		case err == nil:
			wantTerm := len(toks) >= 2 &&
				toks[len(toks)-2].kind == tokSymbol && toks[len(toks)-2].text == ";"
			if ts.Terminated() != wantTerm {
				t.Errorf("Terminated(%q) = %v, lexer says %v", text, ts.Terminated(), wantTerm)
			}
			if ts.inString {
				t.Errorf("inString(%q) = true on cleanly-lexed text", text)
			}
		case errors.Is(err, ErrUnterminatedString):
			if !ts.inString {
				t.Errorf("inString(%q) = false, lexer reports an open string", text)
			}
		}
	}
}

// TestTerminated pins the lexer-based statement-terminator probe: only a
// ';' token terminates — not one inside a string or a -- comment.
func TestTerminated(t *testing.T) {
	for text, want := range map[string]bool{
		"SELECT * FROM t;":             true,
		"SELECT * FROM t; -- trailing": true,
		"SELECT * FROM t":              false,
		"SHOW -- note;\n":              false, // the ';' is comment payload
		"SHOW -- note;\nTABLES;":       true,
		"INTO 'a;":                     false, // open string literal
		"INTO 'a;b';":                  true,
		"-- comment only;":             false,
		"":                             false,
		"bad ? char":                   false, // no terminator yet
		"bad ? char;":                  true,  // terminated; Parse reports the error
		"SELECT 1;\n-- post comment":   true,  // trailing comment keeps the ';' terminal
	} {
		if got := Terminated(text); got != want {
			t.Errorf("Terminated(%q) = %v, want %v", text, got, want)
		}
	}
}

// TestTermScannerIncrementalMatchesWhole: feeding lines incrementally
// must agree with scanning the concatenated buffer — the wire protocol
// depends on it to avoid re-lexing per line.
func TestTermScannerIncrementalMatchesWhole(t *testing.T) {
	lines := []string{
		"SELECT vec, label FROM papers -- features;",
		"TO TRAIN lr WITH epochs=1",
		"INTO 'm;",
		"x''y\\';",
		"still in string'",
		";",
		"SHOW TABLES;",
	}
	var inc TermScanner
	buf := ""
	for _, ln := range lines {
		inc.Write(ln)
		inc.Write("\n")
		buf += ln + "\n"
		if got, want := inc.Terminated(), Terminated(buf); got != want {
			t.Fatalf("after %q: incremental=%v whole=%v", ln, got, want)
		}
	}
	if !inc.Terminated() {
		t.Fatal("final buffer should be terminated")
	}
	inc.Reset()
	if inc.Terminated() {
		t.Fatal("reset scanner reports terminated")
	}
}

// TestReservedMetaNamesRejected: user statements cannot name models or
// destinations ending in __meta — those alias metadata side tables under
// a different lock key.
func TestReservedMetaNamesRejected(t *testing.T) {
	for _, bad := range []string{
		"SELECT * FROM t TO TRAIN lr INTO m__meta;",
		"SELECT * FROM t TO PREDICT INTO out__meta USING m;",
		"SELECT * FROM t TO PREDICT USING m__meta;",
		"SELECT * FROM t TO EVALUATE USING 'm__meta';",
		"SELECT SVMTrain('m__meta', 't', 'vec', 'label');",
	} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("Parse(%q): %v (want reserved-name error)", bad, err)
		}
	}
	// Reading a side table as a data source stays legal.
	if _, err := Parse("SELECT * FROM m__meta TO PREDICT USING m;"); err != nil {
		t.Errorf("FROM __meta should parse: %v", err)
	}
}

// TestReservedShadowNamesRejected: "__shadow" anywhere in a user name is
// reserved for the crash-atomic save protocol's in-flight generations —
// INTO m__shadow would collide with the shadow heap a retrain of m
// builds, and the recovery sweep deletes *__shadow.heap at startup. Even
// reading one is rejected: a shadow is not a table until its swap commits.
func TestReservedShadowNamesRejected(t *testing.T) {
	for _, bad := range []string{
		"SELECT * FROM t TO TRAIN lr INTO m__shadow;",
		"SELECT * FROM t TO TRAIN lr INTO 'm__shadow_2';",
		"SELECT * FROM t TO PREDICT INTO out__shadow USING m;",
		"SELECT * FROM t TO PREDICT USING m__shadow;",
		"SELECT * FROM m__shadow TO PREDICT USING m;",
		"SELECT SVMTrain('m__shadow', 't', 'vec', 'label');",
	} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("Parse(%q): %v (want reserved-name error)", bad, err)
		}
	}
	// Names that merely contain "shadow" without the reserved marker stay
	// legal.
	if _, err := Parse("SELECT * FROM t TO TRAIN lr INTO shadow_prices;"); err != nil {
		t.Errorf("INTO shadow_prices should parse: %v", err)
	}
}

// TestPathTraversalNamesRejectedAtParse: destination names become heap
// file names; path tricks must fail at parse time, not after a full
// training run (or inside an async worker).
func TestPathTraversalNamesRejectedAtParse(t *testing.T) {
	for _, bad := range []string{
		"SELECT * FROM t TO TRAIN lr INTO '../evil';",
		"SELECT * FROM t TO TRAIN lr INTO 'a/b' ASYNC;",
		"SELECT * FROM t TO PREDICT INTO 'a\\b' USING m;",
		"SELECT * FROM t TO PREDICT USING 'a/..';",
		"SELECT SVMTrain('../m', 't', 'vec', 'label');",
	} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "invalid table name") {
			t.Errorf("Parse(%q): %v (want invalid-table-name error)", bad, err)
		}
	}
}

// TestIntoCannotOverwriteSource: INTO naming the FROM table (or the USING
// model, or an over-long name) is rejected at parse time.
func TestIntoCannotOverwriteSource(t *testing.T) {
	long := strings.Repeat("n", 130)
	for src, want := range map[string]string{
		"SELECT * FROM papers TO TRAIN lr INTO papers;":                        "overwrite the FROM",
		"SELECT * FROM out TO PREDICT INTO out USING m;":                       "overwrite the FROM",
		"SELECT * FROM t TO PREDICT INTO m USING m;":                           "overwrite the model",
		"SELECT * FROM t TO TRAIN lr INTO '" + long + "';":                     "longer than",
		"SELECT * FROM t TO TRAIN lr INTO '" + strings.Repeat("n", 125) + "';": "longer than", // base fits, __meta does not
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%.60q...): %v (want %q)", src, err, want)
		}
	}
}

// TestShowShardsParsing covers the SHOW SHARDS grammar: table name
// (identifier or quoted), optional positive integer shard count, clean
// rejection of missing names and non-positive or fractional counts.
func TestShowShardsParsing(t *testing.T) {
	st, err := Parse("SHOW SHARDS forest;")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindShowShards || st.From != "forest" || st.ShardCount != 0 {
		t.Fatalf("SHOW SHARDS forest parsed to %+v", st)
	}
	st, err = Parse("show shards 'my table' 8")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindShowShards || st.From != "my table" || st.ShardCount != 8 {
		t.Fatalf("quoted SHOW SHARDS parsed to %+v", st)
	}
	if KindShowShards.String() != "SHOW SHARDS" {
		t.Fatalf("kind string %q", KindShowShards)
	}
	for _, bad := range []string{
		"SHOW SHARDS;",            // missing table
		"SHOW SHARDS forest 0;",   // zero count
		"SHOW SHARDS forest 2.5;", // fractional count
		"SHOW SHARDS forest -3;",  // negative count (trailing input)
		"SHOW SHARDS t__shadow;",  // reserved in-flight generation
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestShardsKnobValidation pins the shards / shard_by knob rules: positive
// integers only, shard_by needs shards, and sharding is mutually exclusive
// with the other parallelism/sampling knobs and the baseline solvers.
func TestShardsKnobValidation(t *testing.T) {
	knobsOf := func(src string) (Knobs, error) {
		t.Helper()
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		k, _, err := SplitKnobs(st.With)
		return k, err
	}

	k, err := knobsOf("SELECT * FROM t TO TRAIN lr WITH shards=4 INTO m;")
	if err != nil {
		t.Fatal(err)
	}
	if k.Shards != 4 || k.ShardBy != "roundrobin" {
		t.Fatalf("shards=4 bound to %+v", k)
	}
	if k.ShardStrategy().String() != "roundrobin" {
		t.Fatalf("default strategy %v", k.ShardStrategy())
	}
	k, err = knobsOf("SELECT * FROM t TO TRAIN lr WITH shards=2, shard_by=hash INTO m;")
	if err != nil {
		t.Fatal(err)
	}
	if k.ShardStrategy().String() != "hash" {
		t.Fatalf("shard_by=hash maps to %v", k.ShardStrategy())
	}

	for src, want := range map[string]string{
		"SELECT * FROM t TO TRAIN lr WITH shards=0 INTO m;":                  "positive integer",
		"SELECT * FROM t TO TRAIN lr WITH shards=-2 INTO m;":                 "positive integer",
		"SELECT * FROM t TO TRAIN lr WITH shards=2.5 INTO m;":                "integer",
		"SELECT * FROM t TO TRAIN lr WITH shards=four INTO m;":               "integer",
		"SELECT * FROM t TO TRAIN lr WITH shard_by=hash INTO m;":             "requires shards",
		"SELECT * FROM t TO TRAIN lr WITH shards=2, parallel=nolock INTO m;": "mutually exclusive",
		"SELECT * FROM t TO TRAIN lr WITH shards=2, mrs=100 INTO m;":         "mutually exclusive",
		"SELECT * FROM t TO TRAIN lr WITH shards=2, solver=batch INTO m;":    "does not combine",
		"SELECT * FROM t TO TRAIN lr WITH shards=2, workers=8 INTO m;":       "ignores workers",
	} {
		if _, err := knobsOf(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SplitKnobs(%q): %v (want %q)", src, err, want)
		}
	}
}

// TestShardsCapped pins the MaxShards bound: an unbounded K from an
// untrusted statement would allocate K heaps/replicas and OOM the daemon,
// so both the knob and the SHOW SHARDS count refuse counts past the cap.
func TestShardsCapped(t *testing.T) {
	st, err := Parse("SELECT * FROM t TO TRAIN lr WITH shards=10000000000 INTO m;")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitKnobs(st.With); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("huge shards knob: %v", err)
	}
	if _, err := Parse("SHOW SHARDS t 10000000000;"); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("huge SHOW SHARDS count: %v", err)
	}
	// The cap itself is accepted.
	st, err = Parse(fmt.Sprintf("SELECT * FROM t TO TRAIN lr WITH shards=%d INTO m;", MaxShards))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitKnobs(st.With); err != nil {
		t.Fatalf("shards=MaxShards should bind: %v", err)
	}
}
