// Package spec is the declarative statement layer of Bismarck: a
// hand-written lexer and recursive-descent parser for the SQLFlow-style
// extended-SQL grammar
//
//	SELECT cols FROM table [WHERE ...]
//	TO TRAIN <task> [WITH k=v, ...] [COLUMN ...] [LABEL ...] INTO model;
//
// (plus TO PREDICT / TO EVALUATE forms and the legacy
// SELECT SVMTrain('m','t','vec','label') calls, which lower into the same
// AST), a registry where every task self-describes its constructor, data
// layout, and tunable WITH-parameters, and one trainer-dispatch path that
// maps the uniform WITH knobs — step rule, ordering, parallelism,
// sampling — onto the sequential, parallel, and sampling trainers.
//
// The paper's thesis is that the user-facing interface is a thin,
// orthogonal layer over one unified IGD architecture; this package is that
// layer. Nothing in it knows about any concrete task: tasks plug in by
// calling Register from their own package.
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"bismarck/internal/engine"
)

// MetaSuffix marks a model's metadata side table ("<model>__meta"). The
// parser reserves names ending in it and the session layer derives side
// table names and lock keys from it; the constant itself lives in the
// engine (which pairs the tables during crash recovery) — sharing it keeps
// the reservation, the lock aliasing, and the recovery pairing in
// lockstep. ShadowSuffix is the engine's reserved in-flight generation
// suffix, reserved here for the same reason: a user table named like a
// shadow would collide with the crash-atomic save protocol's work files.
const (
	MetaSuffix   = engine.MetaSuffix
	ShadowSuffix = engine.ShadowSuffix
)

// Kind discriminates the statement forms of the grammar.
type Kind int

// Statement kinds.
const (
	// KindTrain is SELECT ... TO TRAIN task ... INTO model.
	KindTrain Kind = iota + 1
	// KindPredict is SELECT ... TO PREDICT ... USING model.
	KindPredict
	// KindEvaluate is SELECT ... TO EVALUATE ... USING model.
	KindEvaluate
	// KindShowTables is SHOW TABLES (or the legacy SELECT Tables()).
	KindShowTables
	// KindShowTasks is SHOW TASKS: list the registered task specs.
	KindShowTasks
	// KindShowModels is SHOW MODELS: list persisted models (tables with a
	// metadata side table).
	KindShowModels
	// KindShowJobs is SHOW JOBS: list background training jobs.
	KindShowJobs
	// KindWaitJob is WAIT JOB <id>: block until the job is terminal.
	KindWaitJob
	// KindCancelJob is CANCEL JOB <id>: cancel a queued/running job.
	KindCancelJob
	// KindShowShards is SHOW SHARDS <table> [k]: report how the table's
	// rows would partition across k shards under each strategy.
	KindShowShards
	// KindPointPredict is the inline scoring form: PREDICT (v1, v2, ...)
	// USING model, or the batched PREDICT VALUES (...), (...) USING model.
	// No FROM table, no view — the feature tuples are in the statement.
	KindPointPredict
	// KindCheckTable is CHECK TABLE <table>: scrub every page of the
	// table's heap on demand, quarantining checksum failures.
	KindCheckTable
	// KindShowScrub is SHOW SCRUB: report per-table page counts and
	// quarantined page ranges from past scrubs and recovery.
	KindShowScrub
	// KindShowServing is SHOW SERVING: the serving plane's admission and
	// cache picture — global gate occupancy plus per-model
	// hits/fills/sheds/queued and the retry-after hint.
	KindShowServing
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTrain:
		return "TRAIN"
	case KindPredict:
		return "PREDICT"
	case KindEvaluate:
		return "EVALUATE"
	case KindShowTables:
		return "SHOW TABLES"
	case KindShowTasks:
		return "SHOW TASKS"
	case KindShowModels:
		return "SHOW MODELS"
	case KindShowJobs:
		return "SHOW JOBS"
	case KindWaitJob:
		return "WAIT JOB"
	case KindCancelJob:
		return "CANCEL JOB"
	case KindShowShards:
		return "SHOW SHARDS"
	case KindPointPredict:
		return "PREDICT"
	case KindCheckTable:
		return "CHECK TABLE"
	case KindShowScrub:
		return "SHOW SCRUB"
	case KindShowServing:
		return "SHOW SERVING"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LitKind discriminates literal values in WITH and WHERE clauses.
type LitKind int

// Literal kinds.
const (
	// LitString is a single-quoted string.
	LitString LitKind = iota + 1
	// LitNumber is an integer or float literal.
	LitNumber
	// LitIdent is a bare word (enum values like shuffle_once).
	LitIdent
)

// Literal is one literal value from the statement text.
type Literal struct {
	Kind  LitKind
	Str   string  // LitString / LitIdent payload
	Num   float64 // LitNumber payload
	IsInt bool    // LitNumber only: the text had no fraction/exponent
	Int   int64   // LitNumber && IsInt payload
}

// StringLit wraps a string as a Literal.
func StringLit(s string) Literal { return Literal{Kind: LitString, Str: s} }

// IntLit wraps an int64 as a Literal.
func IntLit(v int64) Literal {
	return Literal{Kind: LitNumber, Num: float64(v), IsInt: true, Int: v}
}

// FloatLit wraps a float64 as a Literal.
func FloatLit(v float64) Literal { return Literal{Kind: LitNumber, Num: v} }

// IdentLit wraps a bare word as a Literal.
func IdentLit(s string) Literal { return Literal{Kind: LitIdent, Str: s} }

// String renders the literal roughly as it appeared in the source.
func (l Literal) String() string {
	switch l.Kind {
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case LitNumber:
		if l.IsInt {
			return strconv.FormatInt(l.Int, 10)
		}
		return strconv.FormatFloat(l.Num, 'g', -1, 64)
	case LitIdent:
		return l.Str
	}
	return "<nil>"
}

// Text returns the payload of a string-ish literal (string or bare word).
func (l Literal) Text() (string, bool) {
	if l.Kind == LitString || l.Kind == LitIdent {
		return l.Str, true
	}
	return "", false
}

// Param is one key=value pair of a WITH clause.
type Param struct {
	Key string
	Val Literal
}

// Predicate is one `col op literal` comparison of a WHERE clause; the
// clause is the conjunction of its predicates.
type Predicate struct {
	Col string
	Op  string // = != < <= > >=
	Val Literal
}

// Statement is the parsed form of one declarative statement. Both the new
// grammar and the legacy SELECT Func(...) calls produce this AST.
type Statement struct {
	Kind Kind

	// Select clause: projected column names, or ["*"] / empty for all.
	Select []string
	// From is the source table.
	From string
	// Where is the ANDed row filter (empty = all rows).
	Where []Predicate

	// Task is the registry name after TO TRAIN.
	Task string
	// With is the ordered key=value parameter list.
	With []Param
	// Columns is the COLUMN clause: feature/data columns in layout order.
	Columns []string
	// Label is the LABEL clause: the target column.
	Label string
	// Model is the USING model of PREDICT / EVALUATE.
	Model string
	// Into is the destination: the model table for TRAIN, the optional
	// output table for PREDICT.
	Into string
	// Async marks a TRAIN statement submitted as a background job
	// (... INTO model ASYNC); only the server front end can run one.
	Async bool
	// JobID is the job of WAIT JOB / CANCEL JOB.
	JobID int64
	// ShardCount is the optional shard count of SHOW SHARDS (0 = the
	// session's default, typically the core count).
	ShardCount int64
	// Points are the inline feature tuples of KindPointPredict, one slice
	// per scored tuple, all the same arity (ValidatePoints enforces it).
	Points [][]float64
}
