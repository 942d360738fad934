package spec

import (
	"fmt"
	"strings"

	"bismarck/internal/engine"
)

// Parse parses one statement of the declarative grammar (see the package
// doc and README for the EBNF). Both the extended-SQL forms and the legacy
// SELECT Func('arg', ...) calls are accepted; legacy calls lower into the
// same Statement AST.
func Parse(src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Allow one trailing semicolon.
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("trailing input after statement: %s", p.peek())
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("spec: %s", fmt.Sprintf(format, args...))
}

// keyword reports whether the next token is the given keyword (idents are
// case-insensitive) and consumes it when it is.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

// accept consumes the next token when it is the given symbol.
func (p *parser) accept(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, found %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.accept(sym) {
		return p.errf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// ident consumes and returns an identifier.
func (p *parser) ident(what string) (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected %s, found %s", what, t)
	}
	p.i++
	return t.text, nil
}

// name consumes an identifier or a quoted string (table/model names may be
// written either way).
func (p *parser) name(what string) (string, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.i++
		return t.text, nil
	case tokString:
		p.i++
		return t.str, nil
	}
	return "", p.errf("expected %s, found %s", what, t)
}

// literal consumes one literal value: a string, a (signed) number, or a
// bare word.
func (p *parser) literal() (Literal, error) {
	t := p.peek()
	switch {
	case t.kind == tokString:
		p.i++
		return StringLit(t.str), nil
	case t.kind == tokNumber:
		p.i++
		if t.isInt {
			return IntLit(t.ival), nil
		}
		return FloatLit(t.num), nil
	case t.kind == tokSymbol && (t.text == "-" || t.text == "+"):
		sign := t.text
		p.i++
		num := p.peek()
		if num.kind != tokNumber {
			return Literal{}, p.errf("expected number after %q, found %s", sign, num)
		}
		p.i++
		if sign == "-" {
			if num.isInt {
				return IntLit(-num.ival), nil
			}
			return FloatLit(-num.num), nil
		}
		if num.isInt {
			return IntLit(num.ival), nil
		}
		return FloatLit(num.num), nil
	case t.kind == tokIdent:
		p.i++
		return IdentLit(t.text), nil
	}
	return Literal{}, p.errf("expected a value, found %s", t)
}

// statement parses one full statement.
func (p *parser) statement() (*Statement, error) {
	switch {
	case p.keyword("SHOW"):
		switch {
		case p.keyword("TABLES"):
			return &Statement{Kind: KindShowTables}, nil
		case p.keyword("TASKS"):
			return &Statement{Kind: KindShowTasks}, nil
		case p.keyword("MODELS"):
			return &Statement{Kind: KindShowModels}, nil
		case p.keyword("JOBS"):
			return &Statement{Kind: KindShowJobs}, nil
		case p.keyword("SHARDS"):
			return p.showShards()
		case p.keyword("SCRUB"):
			return &Statement{Kind: KindShowScrub}, nil
		case p.keyword("SERVING"):
			return &Statement{Kind: KindShowServing}, nil
		}
		return nil, p.errf("expected TABLES, TASKS, MODELS, JOBS, SHARDS, SCRUB or SERVING after SHOW, found %s", p.peek())
	case p.keyword("WAIT"):
		return p.jobStatement(KindWaitJob, "WAIT")
	case p.keyword("CANCEL"):
		return p.jobStatement(KindCancelJob, "CANCEL")
	case p.keyword("CHECK"):
		return p.checkTable()
	case p.keyword("SELECT"):
		return p.selectStatement()
	case p.keyword("PREDICT"):
		return p.pointPredict()
	}
	return nil, p.errf("expected SELECT, SHOW, CHECK, WAIT, CANCEL or PREDICT, found %s", p.peek())
}

// pointPredict parses the inline scoring forms
//
//	PREDICT (v1, v2, ...) USING model
//	PREDICT VALUES (v1, ...), (v2, ...) USING model
//
// The values are numeric literals — the feature tuple is in the statement,
// so scoring needs no table, no view, and no materialization. The batched
// VALUES form scores every tuple against one model snapshot.
func (p *parser) pointPredict() (*Statement, error) {
	st := &Statement{Kind: KindPointPredict}
	if p.keyword("VALUES") {
		for {
			vals, err := p.pointTuple()
			if err != nil {
				return nil, err
			}
			st.Points = append(st.Points, vals)
			if len(st.Points) > MaxPointBatch {
				return nil, p.errf("PREDICT VALUES batch exceeds %d tuples", MaxPointBatch)
			}
			if !p.accept(",") {
				break
			}
		}
	} else {
		vals, err := p.pointTuple()
		if err != nil {
			return nil, err
		}
		st.Points = [][]float64{vals}
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	m, err := p.name("a model name after USING")
	if err != nil {
		return nil, err
	}
	st.Model = m
	return st, p.validate(st)
}

// pointTuple parses one parenthesized numeric tuple of a point-PREDICT.
func (p *parser) pointTuple() ([]float64, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.accept(")") {
		return nil, p.errf("PREDICT needs at least one value per tuple (empty tuple)")
	}
	var vals []float64
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		if lit.Kind != LitNumber {
			return nil, p.errf("PREDICT tuples take numeric values, found %s", lit)
		}
		vals = append(vals, lit.Num)
		if len(vals) > MaxPointValues {
			return nil, p.errf("PREDICT tuple exceeds %d values", MaxPointValues)
		}
		if p.accept(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return vals, nil
	}
}

// showShards parses the tail of SHOW SHARDS <table> [k]: the table whose
// shard distribution to report and an optional positive shard count.
func (p *parser) showShards() (*Statement, error) {
	name, err := p.name("a table name after SHOW SHARDS")
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: KindShowShards, From: name}
	if t := p.peek(); t.kind == tokNumber {
		if !t.isInt {
			return nil, p.errf("SHOW SHARDS wants an integer shard count, found %s", t)
		}
		if err := ValidateShardCount(t.ival); err != nil {
			return nil, fmt.Errorf("SHOW SHARDS: %w", err)
		}
		p.i++
		st.ShardCount = t.ival
	}
	return st, p.validate(st)
}

// checkTable parses the tail of CHECK TABLE <table>: an on-demand scrub
// of every page of the table's heap.
func (p *parser) checkTable() (*Statement, error) {
	if !p.keyword("TABLE") {
		return nil, p.errf("expected TABLE after CHECK, found %s", p.peek())
	}
	name, err := p.name("a table name after CHECK TABLE")
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: KindCheckTable, From: name}
	return st, p.validate(st)
}

// jobStatement parses the tail of WAIT JOB <id> / CANCEL JOB <id>.
func (p *parser) jobStatement(kind Kind, verb string) (*Statement, error) {
	if !p.keyword("JOB") {
		return nil, p.errf("expected JOB after %s, found %s", verb, p.peek())
	}
	t := p.peek()
	if t.kind != tokNumber || !t.isInt || t.ival < 0 {
		return nil, p.errf("expected a job id after %s JOB, found %s", verb, t)
	}
	p.i++
	return &Statement{Kind: kind, JobID: t.ival}, nil
}

// selectStatement parses everything after SELECT: either a legacy function
// call or the extended select + TO clause.
func (p *parser) selectStatement() (*Statement, error) {
	// Legacy form: SELECT Ident ( args ) ;
	if p.peek().kind == tokIdent && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
		return p.legacyCall()
	}

	st := &Statement{}
	// Column list: * or ident[, ident...].
	if p.accept("*") {
		st.Select = []string{"*"}
	} else {
		for {
			col, err := p.ident("a column name")
			if err != nil {
				return nil, err
			}
			st.Select = append(st.Select, col)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.name("a table name")
	if err != nil {
		return nil, err
	}
	st.From = tbl

	if p.keyword("WHERE") {
		if err := p.whereClause(st); err != nil {
			return nil, err
		}
	}

	if err := p.expectKeyword("TO"); err != nil {
		return nil, err
	}
	switch {
	case p.keyword("TRAIN"):
		st.Kind = KindTrain
		task, err := p.name("a task name")
		if err != nil {
			return nil, err
		}
		st.Task = strings.ToLower(task)
	case p.keyword("PREDICT"):
		st.Kind = KindPredict
	case p.keyword("EVALUATE"):
		st.Kind = KindEvaluate
	default:
		return nil, p.errf("expected TRAIN, PREDICT or EVALUATE after TO, found %s", p.peek())
	}

	if err := p.tailClauses(st); err != nil {
		return nil, err
	}
	return st, p.validate(st)
}

// tailClauses parses the trailing WITH / COLUMN / LABEL / USING / INTO
// clauses in any order, each at most once.
func (p *parser) tailClauses(st *Statement) error {
	seen := map[string]bool{}
	once := func(kw string) error {
		if seen[kw] {
			return p.errf("duplicate %s clause", kw)
		}
		seen[kw] = true
		return nil
	}
	for {
		switch {
		case p.keyword("WITH"):
			if err := once("WITH"); err != nil {
				return err
			}
			withKeys := map[string]bool{}
			for {
				key, err := p.ident("a parameter name")
				if err != nil {
					return err
				}
				if err := p.expectSymbol("="); err != nil {
					return err
				}
				val, err := p.literal()
				if err != nil {
					return err
				}
				key = strings.ToLower(key)
				if withKeys[key] {
					return p.errf("duplicate WITH parameter %q", key)
				}
				withKeys[key] = true
				st.With = append(st.With, Param{Key: key, Val: val})
				if !p.accept(",") {
					break
				}
			}
		case p.keyword("COLUMN") || p.keyword("COLUMNS"):
			if err := once("COLUMN"); err != nil {
				return err
			}
			for {
				col, err := p.ident("a column name")
				if err != nil {
					return err
				}
				st.Columns = append(st.Columns, col)
				if !p.accept(",") {
					break
				}
			}
		case p.keyword("LABEL"):
			if err := once("LABEL"); err != nil {
				return err
			}
			col, err := p.name("a label column")
			if err != nil {
				return err
			}
			st.Label = col
		case p.keyword("USING"):
			if err := once("USING"); err != nil {
				return err
			}
			m, err := p.name("a model name")
			if err != nil {
				return err
			}
			st.Model = m
		case p.keyword("INTO"):
			if err := once("INTO"); err != nil {
				return err
			}
			m, err := p.name("a destination name")
			if err != nil {
				return err
			}
			st.Into = m
		case p.keyword("ASYNC"):
			if err := once("ASYNC"); err != nil {
				return err
			}
			st.Async = true
		case p.keyword("VALUES"):
			// A near-miss worth a pointed message: inline tuples belong to
			// the point form, not the table form.
			return p.errf("VALUES tuples belong to the inline point form — PREDICT VALUES (...) USING <model> — not to TO %s", st.Kind)
		default:
			return nil
		}
	}
}

// whereClause parses predicate [AND predicate]*.
func (p *parser) whereClause(st *Statement) error {
	for {
		col, err := p.ident("a column name in WHERE")
		if err != nil {
			return err
		}
		t := p.peek()
		if t.kind != tokSymbol {
			return p.errf("expected a comparison operator, found %s", t)
		}
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.i++
		default:
			return p.errf("unsupported operator %q in WHERE", t.text)
		}
		val, err := p.literal()
		if err != nil {
			return err
		}
		st.Where = append(st.Where, Predicate{Col: col, Op: t.text, Val: val})
		if !p.keyword("AND") {
			return nil
		}
	}
}

// validate checks clause/kind combinations the clause loop cannot.
func (p *parser) validate(st *Statement) error {
	if err := ValidateNames(st); err != nil {
		return err
	}
	switch st.Kind {
	case KindTrain:
		if st.Into == "" {
			return p.errf("TO TRAIN requires INTO <model>")
		}
		if st.Model != "" {
			return p.errf("TO TRAIN does not take USING")
		}
	case KindPredict, KindEvaluate:
		if st.Model == "" {
			return p.errf("TO %s requires USING <model>", st.Kind)
		}
		if st.Kind == KindEvaluate && st.Into != "" {
			return p.errf("TO EVALUATE does not take INTO")
		}
		if st.Async {
			return p.errf("ASYNC applies to TO TRAIN only")
		}
	case KindPointPredict:
		if err := ValidatePoints(st.Points); err != nil {
			return err
		}
	}
	return nil
}

// Caps on the inline point-PREDICT forms: statements arrive from untrusted
// network clients once a catalog is served over TCP, and the 1 MiB
// statement cap alone would still admit a half-million-value tuple.
const (
	// MaxPointValues bounds one tuple's arity.
	MaxPointValues = 4096
	// MaxPointBatch bounds the VALUES tuple count of one statement.
	MaxPointBatch = 1024
)

// ValidatePoints enforces the shape rules of the inline point-PREDICT
// forms. The parser runs it, and — Statement being an exported type — the
// session and serving layers run it again on every execution path, so a
// programmatically built statement faces the same rules.
func ValidatePoints(points [][]float64) error {
	if len(points) == 0 {
		return fmt.Errorf("spec: PREDICT needs at least one value tuple")
	}
	if len(points) > MaxPointBatch {
		return fmt.Errorf("spec: PREDICT VALUES batch of %d exceeds the limit of %d", len(points), MaxPointBatch)
	}
	arity := len(points[0])
	for i, vals := range points {
		if len(vals) == 0 {
			return fmt.Errorf("spec: PREDICT tuple %d is empty", i+1)
		}
		if len(vals) > MaxPointValues {
			return fmt.Errorf("spec: PREDICT tuple %d has %d values, limit is %d", i+1, len(vals), MaxPointValues)
		}
		if len(vals) != arity {
			return fmt.Errorf("spec: PREDICT VALUES arity mismatch: tuple %d has %d values, tuple 1 has %d",
				i+1, len(vals), arity)
		}
	}
	return nil
}

// ValidateNames enforces the statement-layer name rules. The parser runs
// it for early errors, and the session layer runs it again on every
// Run — Statement is an exported type, so a programmatically built one
// must face the same rules where the tables are actually touched.
func ValidateNames(st *Statement) error {
	for _, name := range []string{st.Into, st.Model} {
		if name == "" {
			continue
		}
		// "__meta" names are reserved for model metadata side tables:
		// training INTO x__meta would alias another model's side table
		// under a different lock key (see DESIGN.md §6) and corrupt SHOW
		// MODELS' pairing of coefficient and metadata tables.
		if strings.HasSuffix(name, MetaSuffix) {
			return fmt.Errorf("spec: name %q is reserved for model metadata (pick a name not ending in %s)", name, MetaSuffix)
		}
		// "__shadow" anywhere in a name is reserved for the crash-atomic
		// save protocol's in-flight generations: INTO m__shadow would
		// collide with the shadow heap a retrain of m builds, and the
		// recovery sweep deletes *__shadow.heap files at startup.
		if strings.Contains(name, ShadowSuffix) {
			return fmt.Errorf("spec: name %q is reserved for in-flight table generations (pick a name without %s)", name, ShadowSuffix)
		}
		// Destination names become heap file names; reject path tricks and
		// over-long names up front so a long TRAIN cannot run to completion
		// (or occupy an async worker) only to fail at save time. The
		// derived __meta side-table name must pass too (length cap).
		if err := engine.ValidTableName(name); err != nil {
			return err
		}
		if err := engine.ValidTableName(name + MetaSuffix); err != nil {
			return err
		}
	}
	// Shadow generations are not readable tables either: a FROM scan of one
	// would race the save that is filling it (they are hidden from SHOW
	// TABLES and may vanish at any commit).
	if st.From != "" && strings.Contains(st.From, ShadowSuffix) {
		return fmt.Errorf("spec: cannot read %q — %s names are reserved in-flight table generations", st.From, ShadowSuffix)
	}
	// INTO naming the FROM source (or, for PREDICT, the USING model) would
	// drop that table to make room for the result — silent data loss.
	if st.Into != "" && st.Into == st.From {
		return fmt.Errorf("spec: INTO %q would overwrite the FROM source table", st.Into)
	}
	if st.Kind == KindPredict && st.Into != "" && st.Into == st.Model {
		return fmt.Errorf("spec: PREDICT INTO %q would overwrite the model it is using", st.Into)
	}
	return nil
}

// --- legacy SELECT Func(...) lowering ---

// legacyCall parses SELECT Func('a', 'b', 3) and lowers it into the
// equivalent declarative Statement — the paper's §2.1 MADlib-style
// interface, kept for back-compat.
func (p *parser) legacyCall() (*Statement, error) {
	fn, err := p.ident("a function name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var args []Literal
	if !p.accept(")") {
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			args = append(args, lit)
			if p.accept(",") {
				continue
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	st, err := lowerLegacy(fn, args)
	if err != nil {
		return nil, err
	}
	return st, p.validate(st)
}

// legacyFunc is one call of the paper's §2.1 interface: the statement it
// lowers to and what each positional argument binds — the clause a string
// argument fills ("into", "from", "using", "column", "label"), or
// "with:<key>" for an integer WITH parameter.
type legacyFunc struct {
	kind  Kind
	task  string
	usage string
	args  []string
}

var legacyFuncs = map[string]legacyFunc{
	"lrtrain":  {KindTrain, "lr", "(model, table, vecCol, labelCol)", []string{"into", "from", "column", "label"}},
	"svmtrain": {KindTrain, "svm", "(model, table, vecCol, labelCol)", []string{"into", "from", "column", "label"}},
	"lmftrain": {KindTrain, "lmf", "(model, table, rows, cols, rank)", []string{"into", "from", "with:rows", "with:cols", "with:rank"}},
	"crftrain": {KindTrain, "crf", "(model, table, numFeatures, numLabels)", []string{"into", "from", "with:features", "with:labels"}},
	"predict":  {KindPredict, "", "(model, table, vecCol)", []string{"using", "from", "column"}},
	"tables":   {KindShowTables, "", "no arguments", nil},
}

func lowerLegacy(fn string, args []Literal) (*Statement, error) {
	f, ok := legacyFuncs[strings.ToLower(fn)]
	if !ok {
		return nil, fmt.Errorf("spec: unknown function %q", fn)
	}
	if len(args) != len(f.args) {
		return nil, fmt.Errorf("spec: %s needs %s", fn, f.usage)
	}
	st := &Statement{Kind: f.kind, Task: f.task}
	for i, bind := range f.args {
		if key, isWith := strings.CutPrefix(bind, "with:"); isWith {
			if args[i].Kind != LitNumber || !args[i].IsInt {
				return nil, fmt.Errorf("spec: %s: argument %d (%s) must be an integer", fn, i+1, key)
			}
			st.With = append(st.With, Param{Key: key, Val: args[i]})
			continue
		}
		s, ok := args[i].Text()
		if !ok {
			return nil, fmt.Errorf("spec: %s: argument %d must be a string", fn, i+1)
		}
		switch bind {
		case "into":
			st.Into = s
		case "from":
			st.From = s
		case "using":
			st.Model = s
		case "column":
			st.Columns = []string{s}
		case "label":
			st.Label = s
		}
	}
	return st, nil
}
