package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/serve"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

// JobState is the lifecycle of a job. Every submitted job reaches exactly
// one of the terminal states (done, failed, canceled).
type JobState int

// Job lifecycle states.
const (
	// JobQueued: accepted, waiting for a slot.
	JobQueued JobState = iota
	// JobRunning: the statement is running.
	JobRunning
	// JobDone: the statement succeeded (a TRAIN's model is persisted).
	JobDone
	// JobFailed: the statement errored; Job.Err carries the message.
	JobFailed
	// JobCanceled: canceled while queued, or stopped while running.
	JobCanceled
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one heavy statement — TRAIN, PREDICT or EVALUATE, sync or ASYNC.
type Job struct {
	// ID is the daemon-wide job number (WAIT JOB <id>).
	ID int64
	// Model is the statement's INTO destination ("" when it has none).
	Model string
	// Statement is the submitted statement, rendered one-line.
	Statement string

	mu        sync.Mutex
	state     JobState
	err       error  // the run's own error value (a sync statement's reply)
	output    string // captured session output (the statement's reply body)
	submitted time.Time
	finished  time.Time

	// done closes when the job reaches a terminal state; stop cancels the
	// statement's ctx (CANCEL JOB).
	done chan struct{}
	stop context.CancelFunc

	st *spec.Statement
}

// JobView is an immutable snapshot of a job for listings.
type JobView struct {
	ID        int64
	Model     string
	Statement string
	State     JobState
	Err       string
	Output    string
	Elapsed   time.Duration
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, Model: j.Model, Statement: j.Statement,
		State: j.state, Output: j.output}
	if j.state == JobFailed {
		v.Err = j.err.Error()
	}
	end := j.finished
	if !j.state.Terminal() {
		end = time.Now()
	}
	v.Elapsed = end.Sub(j.submitted)
	return v
}

// begin moves queued → running; it fails when the job was canceled while
// still queued (requestCancel already settled it terminal).
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = JobRunning
	return true
}

// settle records the run's outcome and closes done.
func (j *Job) settle(err error, output string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.output = output
	j.err = err
	j.finished = time.Now()
	switch {
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
	case err != nil:
		j.state = JobFailed
	default:
		j.state = JobDone
	}
	close(j.done)
}

// requestCancel cancels the job's ctx, so a running job stops before its
// next epoch or its commit, and returns cancelIfQueued's state — taken
// before the ctx is canceled, or a queued job's own goroutine could settle
// it in between and the caller would report "already canceled".
func (j *Job) requestCancel() JobState {
	was := j.cancelIfQueued()
	j.stop()
	return was
}

// cancelIfQueued settles a queued job canceled and stops its ctx (it never
// runs) and returns the state it found; running ones are left to commit.
func (j *Job) cancelIfQueued() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	was := j.state
	if was == JobQueued {
		j.stop()
		j.state = JobCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
	}
	return was
}

// maxPendingJobs bounds the job gate's queue: past it a submit sheds.
const maxPendingJobs = 256

// scheduler runs every heavy statement as a job on its own goroutine,
// admitted by gate: Options.Workers slots, maxPendingJobs waiters.
type scheduler struct {
	m       *Manager
	gate    *serve.Gate
	wg      sync.WaitGroup
	mu      sync.Mutex
	next    int64
	jobs    map[int64]*Job
	order   []int64 // submission order, for bounded retention
	closing bool
}

// submit admits a heavy statement and starts its job under a ctx parented
// on ctx. Admission happens under the scheduler mutex before an id is
// taken, so a shed (*wire.BusyError) takes no job id and drain cannot
// miss a job that is about to start.
func (s *scheduler) submit(ctx context.Context, st *spec.Statement, text string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, fmt.Errorf("server: shutting down, not accepting jobs")
	}
	t, err := s.gate.Admit()
	if err != nil {
		return nil, err
	}
	s.next++
	job := &Job{ID: s.next, Model: st.Into, Statement: ledgerText(text),
		submitted: time.Now(), done: make(chan struct{}), st: st}
	ctx, job.stop = context.WithCancel(ctx)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	// Bounded retention: a daemon runs for weeks, and terminal jobs carry
	// their statement and captured output. Evict the oldest terminal jobs
	// past the history limit, skipping (never evicting) live ones — a
	// single long-running job must not shield the terminal jobs completing
	// behind it from eviction, or the ledger would grow past the limit for
	// the job's whole duration. Live jobs themselves are bounded by the
	// gate's slots and queue.
	if excess := len(s.order) - s.m.opts.JobHistory; excess > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			j, ok := s.jobs[id]
			if ok && excess > 0 {
				j.mu.Lock()
				terminal := j.state.Terminal()
				j.mu.Unlock()
				if terminal {
					delete(s.jobs, id)
					excess--
					continue
				}
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
	s.wg.Add(1)
	go s.run(ctx, job, t)
	return job, nil
}

// run waits for a slot — a job whose ctx ends first never runs — then
// executes the job on a private session that shares the manager's catalog
// and locks. A committed TRAIN is already durable, so its one post-commit
// step is a best-effort Refill: the first PREDICT after the swap never
// pays the decode.
func (s *scheduler) run(ctx context.Context, job *Job, t serve.Ticket) {
	defer s.wg.Done()
	defer job.stop()
	if !t.WaitOrCancel(ctx.Done()) {
		job.cancelIfQueued()
		return
	}
	defer t.Release()
	if !job.begin() {
		return
	}
	var out bytes.Buffer
	sess := s.m.newSQLSession(&out)
	if hook := s.m.Hooks.BeforeSave; hook != nil {
		sess.Guard = saveHook{s.m.locks, job, hook}
	}
	err := sess.Run(ctx, job.st)
	if err == nil && job.st.Kind == spec.KindTrain {
		s.m.plane.Refill(job.st.Into)
	}
	job.settle(err, out.String())
}

// saveHook fires Hooks.BeforeSave when the job asks for the shadow lock of
// its INTO name: training is over and the save is about to begin.
type saveHook struct {
	*nameLocks
	job  *Job
	fire func(jobID int64, model string)
}

// Lock implements sqlish.Guard.
func (g saveHook) Lock(key sqlish.LockKey) func() {
	if key.String() == g.job.Model+engine.ShadowSuffix {
		g.fire(g.job.ID, g.job.Model)
	}
	return g.nameLocks.Lock(key)
}

// ledgerText bounds the statement rendering kept for SHOW JOBS: the
// server accepts statements up to the 1 MB line cap, and a full-length
// one echoed as a single SHOW JOBS body line would overflow the client's
// own line scanner mid-response.
func ledgerText(text string) string {
	const max = 512
	if len(text) > max {
		return strings.ToValidUTF8(text[:max], "") + " …[truncated]"
	}
	return text
}

// get resolves a job id.
func (s *scheduler) get(id int64) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("server: no job %d (SHOW JOBS lists submitted jobs)", id)
	}
	return job, nil
}

// list snapshots every job, oldest first.
func (s *scheduler) list() []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// drain stops intake and waits until every accepted job is terminal.
// Running jobs finish and commit; still-queued jobs settle canceled
// immediately — a shutdown must not first train a 200-deep backlog.
func (s *scheduler) drain() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closing = true
	pending := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	for _, j := range pending {
		j.cancelIfQueued()
	}
	s.wg.Wait()
}
