// Package server is the one statement front end: its Session decides what
// every statement does — TRAIN, PREDICT and EVALUATE, sync or ASYNC, run
// as admitted, cancellable jobs; point-PREDICT, SHOW SERVING and the job
// statements (SHOW JOBS / WAIT JOB / CANCEL JOB) are answered here; other
// catalog statements go to a sqlish session. One Manager shares one engine
// catalog across N client sessions behind per-model reader/writer locks;
// the bismarckd daemon serves it over a line-oriented TCP protocol, and
// the local bismarck REPL and the library facade run it in process.
//
// Locking protocol (documented in DESIGN.md): lock order is manager →
// model → catalog. The manager level is nameLocks' registry mutex (held
// only to resolve a name to its RWMutex), the model level is the per-name
// RWMutex (write-held across a model's replace-and-fill window, read-held
// across metadata+coefficient loads), and the catalog level is
// engine.Catalog's own mutex (held only inside single create/get/drop
// calls). A session never holds two model-level locks at once, which makes
// the protocol deadlock-free by construction: PREDICT and EVALUATE on a
// model being retrained simply serve the previous persisted snapshot until
// the TRAIN's save commits.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/serve"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// Options tunes a Manager.
type Options struct {
	// Workers is how many TRAIN/PREDICT/EVALUATE jobs, sync or ASYNC, run at
	// once; 256 more may queue (0 = GOMAXPROCS, capped at 8).
	Workers int
	// JobHistory bounds retained terminal jobs: the oldest finished jobs
	// are evicted past it, so a long-running daemon's job ledger (and its
	// captured training output) stays bounded (0 = 1024). An evicted job
	// id is no longer WAITable — clients learn "no job N".
	JobHistory int
	// Epochs / Alpha are the session-level defaults handed to every client
	// session (same meaning as the bismarck CLI flags).
	Epochs int
	Alpha  float64
	// ServeInflight / ServeQueue size the point-PREDICT serving plane:
	// concurrent scoring slots and the bounded wait queue beyond which
	// the plane sheds load with "ERR busy" (0 = the plane's defaults,
	// GOMAXPROCS and 4× that).
	ServeInflight int
	ServeQueue    int
	// ServeModelInflight / ServeModelQueue bound one model's share of the
	// plane (0 = the plane's defaults: the global inflight, and half the
	// global queue).
	ServeModelInflight int
	ServeModelQueue    int
	// ExecInflight / ExecQueue size the distributed-executor admission
	// gate: concurrent shard-op slots and the bounded wait queue beyond
	// which executor frames shed with a busy frame (0 = the gate's
	// defaults, GOMAXPROCS and 4× that).
	ExecInflight int
	ExecQueue    int
}

// Hooks instruments the manager for deterministic concurrency tests.
type Hooks struct {
	// BeforeSave runs in every job, sync or ASYNC, when its save asks for
	// the shadow lock of the INTO name. Tests use it to hold a job at the
	// save boundary while probing reads.
	BeforeSave func(jobID int64, model string)
}

// Manager shares one catalog across many client sessions: it owns the
// per-name lock registry every session locks through and the background
// job scheduler every heavy statement runs on.
type Manager struct {
	cat   *engine.Catalog
	locks *nameLocks
	sched *scheduler
	plane *serve.Plane
	opts  Options

	// execGate admission-controls distributed-executor shard ops;
	// execConns counts live executor-serving binary connections (SHOW
	// SERVING reports both).
	execGate  *serve.Gate
	execConns atomic.Int64

	// Hooks must be set before the first session runs a statement.
	Hooks Hooks
}

// NewManager wraps a catalog for multi-session use.
func NewManager(cat *engine.Catalog, opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers > 8 {
			opts.Workers = 8
		}
	}
	if opts.JobHistory <= 0 {
		opts.JobHistory = 1024
	}
	m := &Manager{cat: cat, locks: newNameLocks(), opts: opts}
	m.sched = &scheduler{m: m, gate: serve.NewGate(opts.Workers, maxPendingJobs),
		jobs: make(map[int64]*Job)}
	// The plane shares the manager's lock registry: its cache fills take a
	// model's read lock exactly like a PREDICT statement, so a TRAIN
	// holding the write lock across its save window is still decisive.
	m.plane = serve.New(cat, m.locks, serve.Options{
		Inflight: opts.ServeInflight, MaxQueue: opts.ServeQueue,
		ModelInflight: opts.ServeModelInflight, ModelQueue: opts.ServeModelQueue})
	m.execGate = serve.NewGate(opts.ExecInflight, opts.ExecQueue)
	return m
}

// Plane exposes the serving plane (the TCP layer's pipelined frames score
// through it directly).
func (m *Manager) Plane() *serve.Plane { return m.plane }

// Catalog exposes the shared catalog.
func (m *Manager) Catalog() *engine.Catalog { return m.cat }

// newSQLSession builds a sqlish session wired into the shared catalog and
// lock registry; every client session and every job gets its own.
func (m *Manager) newSQLSession(out io.Writer) *sqlish.Session {
	return &sqlish.Session{Cat: m.cat, Out: out, Guard: m.locks,
		Epochs: m.opts.Epochs, Alpha: m.opts.Alpha}
}

// Drain stops job intake and blocks until every accepted job is terminal.
func (m *Manager) Drain() { m.sched.drain() }

// Close is the one shutdown sequence. It drains the jobs (running ones
// finish and commit, queued ones cancel), discards any in-flight shadow
// generation an aborted save left registered, saves the catalog if it is
// file-backed — even after a failed statement, since earlier ones may have
// created tables that must reach catalog.json — and closes it. Stop the
// wire first (TCPServer.Close): nothing may still be mutating heap files.
func (m *Manager) Close() error {
	m.Drain()
	var errs []error
	step := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	step("discarding in-flight shadows", m.cat.DiscardShadows())
	if m.cat.FileBacked() {
		step("saving catalog", m.cat.Save())
	}
	step("closing catalog", m.cat.Close())
	return errors.Join(errs...)
}

// NewSession opens a client session writing its results to out.
// Each session serves one client serially; sessions are safe against each
// other through the shared lock registry.
func (m *Manager) NewSession(out io.Writer) *Session {
	return &Session{m: m, out: out, sq: m.newSQLSession(out)}
}

// Session is one client's view of the manager: a sqlish session for the
// catalog statements plus the serving and job statements answered here.
type Session struct {
	m   *Manager
	out io.Writer
	sq  *sqlish.Session
}

// Exec parses and runs one statement with no cancellation.
func (s *Session) Exec(text string) error { return s.exec(context.Background(), text) }

// exec parses and runs one statement under ctx.
func (s *Session) exec(ctx context.Context, text string) error {
	st, err := spec.Parse(text)
	if err != nil {
		return err
	}
	return s.Run(ctx, st, text)
}

// Run executes a parsed statement; text is the source rendering kept for
// job listings (pass "" to rebuild nothing fancier than the kind). A done
// ctx stops a sync job (its ctx is a child of ctx) and gives up a WAIT JOB
// or a queued point PREDICT; an ASYNC job runs under its own ctx.
func (s *Session) Run(ctx context.Context, st *spec.Statement, text string) error {
	switch st.Kind {
	case spec.KindTrain, spec.KindPredict, spec.KindEvaluate:
		if st.Async {
			ctx = context.Background()
		}
		job, err := s.m.sched.submit(ctx, st, oneLine(text))
		if err != nil {
			return err
		}
		if st.Async {
			fmt.Fprintf(s.out, "job %d queued: TRAIN %s INTO %q (SHOW JOBS / WAIT JOB %d)\n",
				job.ID, st.Task, st.Into, job.ID)
			return nil
		}
		// No select on ctx: the job's ctx is its child, so done closes once
		// the job has stopped. The reply is its own output and error value.
		<-job.done
		io.WriteString(s.out, job.output)
		return job.err
	case spec.KindShowJobs:
		for _, v := range s.m.sched.list() {
			line := fmt.Sprintf("job %-3d %-9s model=%-12s %7s  %s",
				v.ID, v.State, v.Model, roundMS(v.Elapsed), v.Statement)
			if v.Err != "" {
				line += "  [" + oneLine(v.Err) + "]"
			}
			fmt.Fprintln(s.out, strings.TrimRight(line, " "))
		}
		return nil
	case spec.KindWaitJob:
		job, err := s.m.sched.get(st.JobID)
		if err != nil {
			return err
		}
		select {
		case <-job.done:
		case <-ctx.Done():
			return fmt.Errorf("server: shutting down; job %d keeps its state (reconnect to inspect)", st.JobID)
		}
		v := job.View()
		io.WriteString(s.out, v.Output)
		if v.State != JobDone {
			if v.Err != "" {
				return fmt.Errorf("server: job %d %s: %s", v.ID, v.State, v.Err)
			}
			return fmt.Errorf("server: job %d %s", v.ID, v.State)
		}
		fmt.Fprintf(s.out, "job %d done in %s\n", v.ID, roundMS(v.Elapsed))
		return nil
	case spec.KindCancelJob:
		job, err := s.m.sched.get(st.JobID)
		if err != nil {
			return err
		}
		switch state := job.requestCancel(); {
		case state.Terminal():
			fmt.Fprintf(s.out, "job %d already %s\n", job.ID, state)
		case state == JobRunning:
			fmt.Fprintf(s.out, "job %d cancel requested; a running job stops before its next epoch or its commit (WAIT JOB %d to confirm)\n",
				job.ID, job.ID)
		default:
			fmt.Fprintf(s.out, "job %d canceled\n", job.ID)
		}
		return nil
	case spec.KindShowServing:
		gs, models := s.m.plane.Stats()
		fmt.Fprintf(s.out, "gate inflight=%d/%d queued=%d/%d models=%d\n",
			gs.Inflight, gs.InflightCap, gs.Queued, gs.QueueCap, gs.Models)
		eIn, eQ := s.m.execGate.Caps()
		fmt.Fprintf(s.out, "executor conns=%d inflight=%d/%d queued=%d/%d retry_after_ms=%d\n",
			s.m.execConns.Load(), s.m.execGate.Inflight(), eIn,
			s.m.execGate.Queued(), eQ, s.m.execGate.RetryHintMS())
		for _, ms := range models {
			fmt.Fprintf(s.out, "model %-12s hits=%-6d fills=%-4d sheds=%-4d queued=%-3d retry_after_ms=%d\n",
				ms.Model, ms.Hits, ms.Fills, ms.Sheds, ms.Queued, ms.RetryAfterMS)
		}
		return nil
	case spec.KindPointPredict:
		// Inline scoring goes through the serving plane: hot cached
		// snapshots under admission control. A request queued for a slot
		// gives up when ctx is done.
		scores := make([]float64, len(st.Points))
		if _, err := s.m.plane.Do(st.Model, ctx.Done(), st.Points, scores); err != nil {
			return err
		}
		for _, v := range scores {
			fmt.Fprintf(s.out, "%.6g\n", v)
		}
		return nil
	}
	return s.sq.Run(ctx, st)
}

// oneLine collapses a statement's whitespace for log-style listings.
func oneLine(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// roundMS renders a duration at millisecond precision.
func roundMS(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
