// Package sqlish executes the declarative statement layer of §2.1 against
// Bismarck trainers over a file catalog. Statements are parsed by
// internal/spec into one AST — both the SQLFlow-style extended grammar
//
//	SELECT vec, label FROM papers
//	TO TRAIN svm WITH alpha=0.1, order=shuffle_once INTO myModel;
//
// and the legacy MADlib-style calls
//
//	SELECT SVMTrain('myModel', 'papers', 'vec', 'label');
//
// — and dispatched through the task registry: the session projects the
// data view, binds WITH parameters, builds the task, routes the uniform
// knobs onto one epoch runner through spec.Train (an IGD plan or a baseline
// solver), and persists the model as a user table plus a metadata side
// table, exactly as the paper describes. This is deliberately NOT a SQL
// engine — the point is that the interface layer is thin and orthogonal to
// the unified architecture underneath. It runs catalog statements only,
// behind server.Session — the one statement front end, which answers
// point-PREDICT, SHOW SERVING, ASYNC and the job statements itself.
package sqlish

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/spec"
	"bismarck/internal/vector"

	// Side effect: the built-in tasks self-register with the statement
	// layer's registry.
	_ "bismarck/internal/tasks/register"
)

// Session executes statements against one catalog. A Session itself is
// not safe for concurrent use — each client gets its own — but sessions
// sharing a catalog are safe against each other when they share a Guard.
type Session struct {
	Cat *engine.Catalog
	// Out receives each statement's output when the statement ends.
	Out io.Writer
	// Epochs and Alpha are session-level defaults used when a statement
	// sets neither; zero values fall back to 20 and the task's preference.
	Epochs int
	Alpha  float64
	// Guard, when non-nil, serializes access to shared catalog tables
	// against other sessions on the same catalog (the server's session
	// manager installs one; nil means the session owns the catalog).
	Guard Guard

	// held is the exclusive lock key withLock holds, zero when none.
	held LockKey
	// out collects the running statement's output; Run copies it to Out
	// once the statement has released every lock, so a slow or stalled
	// Out can never hold a table's lock.
	out bytes.Buffer
}

// Exec parses and runs one statement with no cancellation.
func (s *Session) Exec(stmt string) error {
	st, err := spec.Parse(stmt)
	if err != nil {
		return err
	}
	return s.Run(context.Background(), st)
}

// Run executes a parsed statement. Name rules are re-checked here (not
// just in the parser) because spec.Statement is exported: a
// programmatically built statement must face the same rules where the
// tables are actually touched. A done ctx stops a TRAIN before its next
// epoch, a PREDICT or EVALUATE before its scoring pass, and any write
// before its commit (fillAndSwap) — never after. The statement prints
// into a buffer that reaches Out only after it returns, when every lock
// it took is released: Out can be a network connection, and a stalled
// client must not stall the writers queued on a table's lock. The
// statement runs under engine.Contain, so a panic in task code that runs on
// this goroutine — Build, a sequential epoch, a sampling or baseline plan,
// an EVALUATE hook, PREDICT scoring — fails the statement, not the process.
func (s *Session) Run(ctx context.Context, st *spec.Statement) error {
	s.out.Reset()
	err := engine.Contain(func() error { return s.run(ctx, st) })
	if s.out.Len() > 0 {
		// A failed write undoes nothing the statement did; the front end
		// learns of a dead client from its own reads and writes.
		_, _ = s.Out.Write(s.out.Bytes())
	}
	return err
}

// run is Run writing into the statement buffer.
func (s *Session) run(ctx context.Context, st *spec.Statement) error {
	if err := spec.ValidateNames(st); err != nil {
		return err
	}
	// Catch file-catalog case collisions before the work happens: creating
	// "Forest" beside "forest" would fail (shared heap file on
	// case-insensitive filesystems), but only at save time — after the
	// whole training run. Exact-name matches are fine (replacement). This
	// pre-check is best-effort: it holds no lock across the training, so a
	// name created concurrently still surfaces at save time through the
	// engine's own checks (Create for the shadow, Swap for the final name —
	// the backstops that actually guarantee no collision is ever created).
	if st.Into != "" {
		for _, n := range []string{st.Into, metaTable(st.Into)} {
			if ex := s.Cat.FindCaseConflict(n); ex != "" {
				return fmt.Errorf("sqlish: INTO %q collides case-insensitively with existing table %q", n, ex)
			}
		}
	}
	switch st.Kind {
	case spec.KindShowTables:
		for _, n := range s.Cat.Names() {
			fmt.Fprintln(&s.out, n)
		}
		return nil
	case spec.KindShowTasks:
		for _, ts := range spec.Tasks() {
			point := ""
			if ts.Predict != nil {
				point = " [point]"
			}
			fmt.Fprintf(&s.out, "%-10s %s%s\n", ts.Name, ts.Summary, point)
			if len(ts.Params) > 0 {
				fmt.Fprintf(&s.out, "           WITH %s\n", spec.DescribeParams(ts.Params))
			}
		}
		return nil
	case spec.KindShowModels:
		return s.showModels()
	case spec.KindShowShards:
		return s.showShards(st)
	case spec.KindShowScrub:
		return s.showScrub()
	case spec.KindCheckTable:
		return s.checkTable(st)
	case spec.KindTrain:
		return s.train(ctx, st)
	case spec.KindPredict:
		return s.predict(ctx, st)
	case spec.KindEvaluate:
		return s.evaluate(ctx, st)
	}
	return fmt.Errorf("sqlish: unsupported statement %v", st.Kind)
}

// prepare resolves the statement's task spec, knobs, params, and data view
// — the shared front half of TRAIN.
func (s *Session) prepare(st *spec.Statement) (*spec.TaskSpec, spec.Knobs, spec.Params, *spec.View, error) {
	ts, err := spec.Lookup(st.Task)
	if err != nil {
		return nil, spec.Knobs{}, nil, nil, err
	}
	knobs, rest, err := spec.SplitKnobs(st.With)
	if err != nil {
		return nil, spec.Knobs{}, nil, nil, err
	}
	params, err := spec.BindParams(ts.Params, rest)
	if err != nil {
		return nil, spec.Knobs{}, nil, nil, err
	}
	view, err := s.projectFrom(st, ts.Schema, spec.ViewOptions{Degraded: knobs.Degraded})
	if err != nil {
		return nil, spec.Knobs{}, nil, nil, err
	}
	// threshold is a scoring-time knob; rejecting it here keeps TRAIN from
	// silently dropping what the user meant for PREDICT/EVALUATE.
	if !math.IsNaN(knobs.Threshold) {
		return nil, spec.Knobs{}, nil, nil, fmt.Errorf(
			"sqlish: threshold applies to PREDICT/EVALUATE, not TRAIN")
	}
	// Resolve session-level defaults: statement > session > task.
	if knobs.Epochs == 0 {
		knobs.Epochs = s.Epochs
	}
	if knobs.Epochs == 0 {
		knobs.Epochs = 20
	}
	if knobs.Alpha == 0 {
		knobs.Alpha = s.Alpha
	}
	if knobs.Alpha == 0 {
		knobs.Alpha = ts.DefaultAlpha
	}
	if knobs.Alpha == 0 {
		knobs.Alpha = 0.1
	}
	return ts, knobs, params, view, nil
}

// projectFrom resolves the source table and materializes the statement's
// view of it under the source name's shared lock: projection is the only
// moment a statement scans a shared table, so the lock window is exactly
// the copy (training and scoring then run on the private view).
func (s *Session) projectFrom(st *spec.Statement, schema engine.Schema, opt spec.ViewOptions) (view *spec.View, err error) {
	err = s.withRLock(st.From, func() error {
		src, err := s.Cat.Get(st.From)
		if err != nil {
			return err
		}
		view, err = spec.ProjectView(src, st, schema, opt)
		return err
	})
	return view, err
}

// showModels lists every persisted model (a coefficient table paired with
// its __meta side table) and the task that trained it.
func (s *Session) showModels() error {
	for _, name := range s.Cat.Names() {
		base, ok := strings.CutSuffix(name, metaSuffix)
		if !ok {
			continue
		}
		var taskName string
		err := s.withRLock(base, func() (err error) {
			if taskName, _, err = s.loadMeta(base); err != nil {
				return err
			}
			if _, err := s.Cat.Get(base); err != nil {
				return fmt.Errorf("missing coefficient table")
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(&s.out, "%-12s (broken: %v)\n", base, err)
			continue
		}
		fmt.Fprintf(&s.out, "%-12s task=%s\n", base, taskName)
	}
	return nil
}

// showShards reports how a table's rows would partition across k shards
// under each strategy — the skew diagnostic behind WITH shards=K. Both
// strategies assign by row index alone, so the distributions come from
// engine.ShardCounts without moving (or copying) any data; only the row
// count is read under the table's shared lock. The count bounds are
// re-checked here because spec.Statement is exported — a programmatically
// built statement must face the same spec.ValidateShardCount rules the
// parser and the WITH shards=K knob enforce (0 means "count omitted":
// default to the core count).
func (s *Session) showShards(st *spec.Statement) error {
	if st.ShardCount != 0 {
		if err := spec.ValidateShardCount(st.ShardCount); err != nil {
			return err
		}
	}
	// The shared lock covers only the resolve and the row-count read.
	var n int
	if err := s.withRLock(st.From, func() error {
		tbl, err := s.Cat.Get(st.From)
		if err != nil {
			return err
		}
		n = tbl.NumRows()
		return nil
	}); err != nil {
		return err
	}
	k := int(st.ShardCount)
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(&s.out, "table %q: %d rows over %d shards\n", st.From, n, k)
	for _, strat := range []engine.ShardStrategy{engine.ShardRoundRobin, engine.ShardHash} {
		counts, err := engine.ShardCounts(n, k, strat)
		if err != nil {
			return err
		}
		minC, maxC := counts[0], counts[0]
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		fmt.Fprintf(&s.out, "%-10s %s (min %d, max %d)\n", strat, renderCounts(counts), minC, maxC)
	}
	return nil
}

// renderCounts formats per-shard row counts, eliding past 16 shards so a
// huge K cannot flood the output with one unreadable line.
func renderCounts(counts []int) string {
	const show = 16
	parts := make([]string, 0, show+1)
	for i, c := range counts {
		if i == show {
			parts = append(parts, fmt.Sprintf("… +%d more", len(counts)-show))
			break
		}
		parts = append(parts, fmt.Sprint(c))
	}
	return strings.Join(parts, " ")
}

// checkTable runs CHECK TABLE <t>: an on-demand scrub that re-reads every
// page of the table's heap from disk, verifies its checksum, and
// quarantines fresh failures. The scrub mutates only the heap's internally
// locked quarantine set, so the table's shared lock is enough — concurrent
// readers proceed, and writers (which take the exclusive lock) queue.
func (s *Session) checkTable(st *spec.Statement) error {
	// The shared lock spans resolve + scrub: the scrub re-reads the heap,
	// so the generation must not be swapped out under it.
	var rep engine.ScrubReport
	if err := s.withRLock(st.From, func() error {
		tbl, err := s.Cat.Get(st.From)
		if err != nil {
			return err
		}
		rep = tbl.Scrub()
		return nil
	}); err != nil {
		return err
	}
	if rep.Clean() {
		fmt.Fprintf(&s.out, "table %q: %d pages, all checksums ok\n", st.From, rep.Pages)
		return nil
	}
	fmt.Fprintf(&s.out, "table %q: %d pages, %d newly quarantined, %d quarantined total\n",
		st.From, rep.Pages, len(rep.NewBad), len(rep.Bad))
	for _, pg := range sortedPages(rep.Bad) {
		fmt.Fprintf(&s.out, "  page %d: %s\n", pg, rep.Bad[pg])
	}
	return nil
}

// showScrub runs SHOW SCRUB: the scrub state of every table — page count
// plus the pages quarantined by recovery, past CHECK TABLE runs, or scan
// failures. It only reads state; CHECK TABLE re-verifies on demand.
func (s *Session) showScrub() error {
	for _, name := range s.Cat.Names() {
		var pages int
		var quar map[int]string
		if err := s.withRLock(name, func() error {
			tbl, err := s.Cat.Get(name)
			if err != nil {
				return err
			}
			pages, quar = tbl.NumPages(), tbl.QuarantinedPages()
			return nil
		}); err != nil {
			continue
		}
		if len(quar) == 0 {
			fmt.Fprintf(&s.out, "%-12s %d pages, clean\n", name, pages)
			continue
		}
		fmt.Fprintf(&s.out, "%-12s %d pages, %d quarantined: %s\n",
			name, pages, len(quar), renderPageRanges(sortedPages(quar)))
	}
	return nil
}

// sortedPages returns the quarantine map's page numbers in order.
func sortedPages(m map[int]string) []int {
	pages := make([]int, 0, len(m))
	for pg := range m {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	return pages
}

// renderPageRanges compresses a sorted page list into "3-5, 9" ranges so a
// long contiguous quarantine does not flood the output.
func renderPageRanges(pages []int) string {
	var parts []string
	for i := 0; i < len(pages); {
		j := i
		for j+1 < len(pages) && pages[j+1] == pages[j]+1 {
			j++
		}
		if j > i {
			parts = append(parts, fmt.Sprintf("%d-%d", pages[i], pages[j]))
		} else {
			parts = append(parts, fmt.Sprint(pages[i]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}

// reportDegraded prints what a degraded projection stepped over, so a
// statement that lost rows to quarantined pages says so in its result.
// The row count is a lower bound: pages whose record count was never
// readable contribute only to the page count.
func (s *Session) reportDegraded(view *spec.View) {
	if view.Skipped.SkippedPages == 0 && view.Skipped.SkippedRows == 0 {
		return
	}
	fmt.Fprintf(&s.out, "degraded scan: skipped %d corrupt pages (>=%d rows)\n",
		view.Skipped.SkippedPages, view.Skipped.SkippedRows)
}

// train runs a TO TRAIN statement end-to-end.
func (s *Session) train(ctx context.Context, st *spec.Statement) error {
	ts, knobs, params, view, err := s.prepare(st)
	if err != nil {
		return err
	}
	s.reportDegraded(view)
	task, err := ts.Build(spec.BuildInput{Params: params, View: view.Table})
	if err != nil {
		return err
	}
	out, err := spec.Train(ctx, ts, task, knobs, view.Table)
	if err != nil {
		return err
	}
	if err := s.saveModel(ctx, st.Into, ts, task, out.Model); err != nil {
		return err
	}
	fmt.Fprintf(&s.out, "%s trained on %s via %s: %d epochs, final loss %.6g; model saved to table %q\n",
		task.Name(), st.From, out.Method, out.Epochs, out.Loss, st.Into)
	return nil
}

// restore loads a persisted model and rebuilds its task from the metadata
// side table — the shared front half of PREDICT / EVALUATE — and returns
// ctx.Err() when ctx is done by then, so neither starts its scoring pass.
func (s *Session) restore(ctx context.Context, st *spec.Statement, opt spec.ViewOptions) (*spec.TaskSpec, core.Task, vector.Dense, *spec.View, spec.Knobs, error) {
	fail := func(err error) (*spec.TaskSpec, core.Task, vector.Dense, *spec.View, spec.Knobs, error) {
		return nil, nil, nil, nil, spec.Knobs{}, err
	}
	// Only the scoring-time knobs mean anything here; reject training knobs
	// (epochs, alpha, order, ...) instead of silently ignoring a typo.
	for _, pr := range st.With {
		if pr.Key != spec.KnobThreshold && pr.Key != spec.KnobDegraded {
			return fail(fmt.Errorf("sqlish: parameter %q is not valid for %v (only threshold and degraded)", pr.Key, st.Kind))
		}
	}
	knobs, _, err := spec.SplitKnobs(st.With)
	if err != nil {
		return fail(err)
	}
	// degraded applies to the source-data scan only; the model and metadata
	// loads below stay strict — a model with quarantined pages must never
	// silently score with a subset of its coefficients.
	opt.Degraded = knobs.Degraded
	taskName, kv, w, _, err := s.readModel(st.Model)
	if err != nil {
		return fail(err)
	}
	ts, err := spec.Lookup(taskName)
	if err != nil {
		return fail(err)
	}
	params, err := spec.RebindStrings(ts.Params, kv)
	if err != nil {
		return fail(err)
	}
	view, err := s.projectFrom(st, ts.Schema, opt)
	if err != nil {
		return fail(err)
	}
	task, err := ts.Build(spec.BuildInput{Params: params, View: view.Table})
	if err != nil {
		return fail(err)
	}
	// A sparsely-stored model (or corrupt dim metadata) can come back
	// shorter than the task dimension; pad so hooks can index w freely.
	if task.Dim() > len(w) {
		padded := vector.NewDense(task.Dim())
		copy(padded, w)
		w = padded
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	return ts, task, w, view, knobs, nil
}

// predict runs a TO PREDICT statement: scores the view with the persisted
// model, writing (id, score) rows INTO a table or printing a summary.
func (s *Session) predict(ctx context.Context, st *spec.Statement) error {
	ts, task, w, view, knobs, err := s.restore(ctx, st, spec.ViewOptions{OptionalLabel: true})
	if err != nil {
		return err
	}
	s.reportDegraded(view)
	if ts.Predict == nil {
		return fmt.Errorf("sqlish: task %s does not support PREDICT (use TO EVALUATE)", ts.Name)
	}
	threshold := knobs.Threshold
	if math.IsNaN(threshold) {
		threshold = ts.DefaultThreshold
	}

	// Score first, write after: a failing statement must not clobber an
	// existing destination table.
	type prediction struct {
		id    int64
		score float64
	}
	var preds []prediction
	if st.Into != "" {
		preds = make([]prediction, 0, view.Table.NumRows())
	}
	labelIdx := len(ts.Schema) - 1
	var n, pos, correct int
	// The batch scoring loop reads the view's slabs; it copies out id and
	// score, never the tuple itself.
	err = view.Table.Rows().Scan(func(tp engine.Tuple) error {
		score := ts.Predict(task, w, tp)
		id := int64(n)
		if tp[0].Type == engine.TInt64 {
			id = tp[0].Int
		}
		n++
		if score > threshold {
			pos++
		}
		if view.HasLabel && ts.Agrees != nil &&
			ts.Agrees(score, threshold, tp[labelIdx].Float) {
			correct++
		}
		if st.Into != "" {
			preds = append(preds, prediction{id: id, score: score})
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("sqlish: no rows to predict in %s", st.From)
	}
	if st.Into != "" {
		// Shadow-generation write (same protocol as saveModel): the result
		// set is filled into a reserved shadow table with no lock on the
		// destination name, then published by Catalog.Swap under the
		// destination's exclusive lock — which now guards only the cheap
		// rename. Readers of the old table are never blocked by the fill
		// and can never see a half-filled heap; a failure (or crash)
		// mid-fill leaves the previous result table fully readable. If the
		// destination was previously a model, its __meta side table retires
		// at the same commit so no stale metadata outlives the coefficients.
		err := s.fillAndSwap(ctx, []string{metaTable(st.Into)}, shadowFill{st.Into, engine.Schema{
			{Name: "id", Type: engine.TInt64},
			{Name: "score", Type: engine.TFloat64},
		}, func(dst *engine.Table) error {
			for _, p := range preds {
				if err := dst.Insert(engine.Tuple{engine.I64(p.id), engine.F64(p.score)}); err != nil {
					return err
				}
			}
			return nil
		}})
		if err != nil {
			return err
		}
		fmt.Fprintf(&s.out, "predicted %d rows into table %q\n", n, st.Into)
		return nil
	}
	if view.HasLabel && ts.Agrees != nil {
		fmt.Fprintf(&s.out, "predicted %d rows: %d positive; accuracy %.2f%%\n",
			n, pos, 100*float64(correct)/float64(n))
	} else {
		fmt.Fprintf(&s.out, "predicted %d rows: %d positive\n", n, pos)
	}
	return nil
}

// evaluate runs a TO EVALUATE statement: task-appropriate quality metrics
// of the persisted model over the view (falling back to the total
// objective loss).
func (s *Session) evaluate(ctx context.Context, st *spec.Statement) error {
	ts, task, w, view, knobs, err := s.restore(ctx, st, spec.ViewOptions{})
	if err != nil {
		return err
	}
	s.reportDegraded(view)
	fmt.Fprintf(&s.out, "%s %q on %s: ", ts.Name, st.Model, st.From)
	if ts.Evaluate != nil {
		return ts.Evaluate(task, w, view.Table, knobs.Threshold, &s.out)
	}
	loss, err := core.TotalLoss(task, w, view.Table)
	if err != nil {
		return err
	}
	fmt.Fprintf(&s.out, "n=%d loss=%.6g\n", view.Table.NumRows(), loss)
	return nil
}

// --- model persistence ---

// ModelSchema is how trained models persist: one (idx, value) row per
// nonzero coefficient, i.e. "the model ... is then persisted as a user
// table".
var ModelSchema = engine.Schema{
	{Name: "idx", Type: engine.TInt64},
	{Name: "value", Type: engine.TFloat64},
}

// MetaSchema is the model's metadata side table: the task name and its
// fully-resolved constructor parameters, so PREDICT / EVALUATE can rebuild
// the identical task later.
var MetaSchema = engine.Schema{
	{Name: "key", Type: engine.TString},
	{Name: "value", Type: engine.TString},
}

// metaSuffix marks a model's metadata side table (shared with the
// parser's reserved-name check and the Guard's lock-key collapsing).
const metaSuffix = spec.MetaSuffix

// metaTable names the metadata side table of a model.
func metaTable(model string) string { return model + metaSuffix }

// shadowName derives the reserved in-flight generation name of a table.
func shadowName(name string) string { return name + engine.ShadowSuffix }

// buildShadow creates the reserved shadow table for name, first clearing
// any stale shadow a previously failed save left registered in this
// process (the recovery sweep handles the on-disk equivalent at startup).
func (s *Session) buildShadow(name string, schema engine.Schema) (*engine.Table, error) {
	sh := shadowName(name)
	if _, err := s.Cat.Get(sh); err == nil {
		if err := s.Cat.Drop(sh); err != nil {
			return nil, err
		}
	}
	return s.Cat.Create(sh, schema)
}

// dropShadow best-effort discards an in-flight shadow after a failed fill;
// the previous generation was never touched, so the failure is a no-op.
func (s *Session) dropShadow(name string) {
	sh := shadowName(name)
	if _, err := s.Cat.Get(sh); err == nil {
		_ = s.Cat.Drop(sh)
	}
}

// shadowFill is one table of a shadow-generation commit: its final name,
// its schema, and what fills its shadow.
type shadowFill struct {
	name   string
	schema engine.Schema
	fill   func(*engine.Table) error
}

// fillAndSwap runs the shadow protocol over one or more tables that must
// change generation together: build each table's shadow, fill and flush it
// (no lock on the final names held — readers of the previous generation
// proceed throughout), then publish them all by one Catalog.Swap commit
// under the first name's exclusive lock, atomically retiring the dropAlso
// names that exist. The lock guards only the rename; a failure — or a
// crash — anywhere in the fill window leaves the previous generation fully
// readable, and the tables can only ever move between generations together.
// A done ctx is the last abort, checked under that lock before the commit.
//
// Lock order: the shadow fill lock of the first name (so two concurrent
// writers of one destination queue up instead of colliding on the shadow
// heaps) is the outer withLock, and that name's lock is a withLock nested
// inside it around the Swap only. The pair is always acquired in that
// order and the name lock is never held while waiting on a shadow lock,
// which is what the no-two-model-locks cycle-freedom argument (DESIGN.md
// §6) needs; withLock allows this pair and refuses any other nesting.
func (s *Session) fillAndSwap(ctx context.Context, dropAlso []string, fills ...shadowFill) error {
	name := fills[0].name
	return s.withLock(shadowName(name), func() (err error) {
		// The shadows go whenever the swap did not commit — on an error,
		// and on a panic unwinding through here, which leaves err nil.
		committed := false
		defer func() {
			if !committed && !errors.Is(err, engine.ErrInjectedCrash) {
				for _, f := range fills {
					s.dropShadow(f.name)
				}
			}
		}()
		names, shadows := make([]string, len(fills)), make([]string, len(fills))
		for i, f := range fills {
			dst, err := s.buildShadow(f.name, f.schema)
			if err != nil {
				return err
			}
			if err := f.fill(dst); err != nil {
				return err
			}
			if err := dst.Flush(); err != nil {
				return err
			}
			names[i], shadows[i] = f.name, shadowName(f.name)
		}
		return s.withLock(name, func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := s.Cat.Swap(names, shadows, dropAlso)
			committed = err == nil
			return err
		})
	})
}

// metaFillFault, when set by a test, fails the metadata fill after the
// coefficient shadow is complete — the partial-failure window that used to
// leave new coefficients paired with old (or no) metadata.
var metaFillFault func(model string) error

// saveModel persists the trained model — the coefficient table and the
// metadata side table, as one fillAndSwap pair keyed on the model's name.
func (s *Session) saveModel(ctx context.Context, name string, ts *spec.TaskSpec, task core.Task, w vector.Dense) error {
	return s.fillAndSwap(ctx, nil,
		shadowFill{name, ModelSchema, func(tbl *engine.Table) error {
			for i, v := range w {
				if v == 0 {
					continue // store sparsely
				}
				if err := tbl.Insert(engine.Tuple{engine.I64(int64(i)), engine.F64(v)}); err != nil {
					return err
				}
			}
			return nil
		}},
		shadowFill{metaTable(name), MetaSchema, func(meta *engine.Table) error {
			if metaFillFault != nil {
				if err := metaFillFault(name); err != nil {
					return err
				}
			}
			rows := []engine.Tuple{
				{engine.Str("task"), engine.Str(ts.Name)},
				{engine.Str("dim"), engine.Str(fmt.Sprint(task.Dim()))},
			}
			if ts.Snapshot != nil {
				for k, v := range ts.Snapshot(task) {
					rows = append(rows, engine.Tuple{engine.Str("p:" + k), engine.Str(v)})
				}
			}
			for _, row := range rows {
				if err := meta.Insert(row); err != nil {
					return err
				}
			}
			return nil
		}})
}

// readModel reads a persisted model — task name, parameters, coefficients
// — under one hold of the model name's shared lock, so a concurrent
// re-TRAIN of the same name can never hand back metadata from one
// generation and coefficients from another. gen is the catalog generation
// observed inside that window: a swap cannot commit while the lock is
// held, so it belongs to the same generation.
func (s *Session) readModel(model string) (taskName string, kv map[string]string, w vector.Dense, gen uint64, err error) {
	err = s.withRLock(model, func() (err error) {
		gen = s.Cat.Generation(model)
		if taskName, kv, err = s.loadMeta(model); err != nil {
			return err
		}
		var dim int64
		fmt.Sscan(kv["__dim"], &dim)
		delete(kv, "__dim") // reserved: model dimension, not a task parameter
		w, err = s.loadModel(model, dim)
		return err
	})
	return taskName, kv, w, gen, err
}

// loadModel reads the persisted coefficient table into a dense vector of
// at least the given dimension (from the metadata side table), in one
// reusable-scratch scan that grows the vector to the largest stored index.
func (s *Session) loadModel(name string, dim int64) (vector.Dense, error) {
	tbl, err := s.Cat.Get(name)
	if err != nil {
		return nil, err
	}
	w := vector.NewDense(int(dim))
	if err := tbl.Scan(func(tp engine.Tuple) error {
		i := tp[0].Int
		if i < 0 {
			return fmt.Errorf("sqlish: model %q stores coefficient index %d", name, i)
		}
		if i >= int64(len(w)) {
			w = append(w, make(vector.Dense, int(i)+1-len(w))...)
		}
		w[i] = tp[1].Float
		return nil
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// loadMeta reads a model's metadata: the task name and its parameter map.
// The model dimension is returned under the reserved key "__dim".
func (s *Session) loadMeta(name string) (string, map[string]string, error) {
	tbl, err := s.Cat.Get(metaTable(name))
	if err != nil {
		if _, modelErr := s.Cat.Get(name); modelErr != nil {
			// Neither coefficients nor metadata: the model was never
			// trained (or was dropped) — report that, not a catalog error.
			return "", nil, &UnknownModelError{Model: name}
		}
		return "", nil, fmt.Errorf("sqlish: model %q has no metadata (was it trained by this interface?)", name)
	}
	task := ""
	kv := map[string]string{}
	err = tbl.Scan(func(tp engine.Tuple) error {
		k, v := tp[0].Str, tp[1].Str
		switch {
		case k == "task":
			task = v
		case k == "dim":
			kv["__dim"] = v
		case len(k) > 2 && k[:2] == "p:":
			kv[k[2:]] = v
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	if task == "" {
		return "", nil, fmt.Errorf("sqlish: model %q metadata is missing the task name", name)
	}
	return task, kv, nil
}
