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
	"bismarck/internal/spec"
)

// JobState is the lifecycle of a background training job. Every submitted
// job reaches exactly one of the terminal states (done, failed, canceled).
type JobState int

// Job lifecycle states.
const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = iota
	// JobRunning: a worker is training.
	JobRunning
	// JobDone: trained and persisted.
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

// Job is one asynchronous TRAIN statement.
type Job struct {
	// ID is the daemon-wide job number (WAIT JOB <id>).
	ID int64
	// Model is the statement's INTO destination.
	Model string
	// Statement is the submitted statement, rendered one-line.
	Statement string

	mu        sync.Mutex
	state     JobState
	err       string
	output    string // captured session output (the training summary line)
	submitted time.Time
	finished  time.Time

	// done closes when the job reaches a terminal state; stop cancels the
	// statement's ctx (CANCEL JOB).
	done chan struct{}
	ctx  context.Context
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
		State: j.state, Err: j.err, Output: j.output}
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
	j.finished = time.Now()
	switch {
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
	case err != nil:
		j.state = JobFailed
		j.err = err.Error()
	default:
		j.state = JobDone
	}
	close(j.done)
}

// requestCancel cancels the job's ctx, so a running job stops before its
// next epoch or its commit, and returns cancelIfQueued's state.
func (j *Job) requestCancel() JobState {
	j.stop()
	return j.cancelIfQueued()
}

// cancelIfQueued settles a queued job canceled (workers skip it at pickup)
// and returns the state it found; the shutdown path lets running ones commit.
func (j *Job) cancelIfQueued() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	was := j.state
	if was == JobQueued {
		j.state = JobCanceled
		j.finished = time.Now()
		close(j.done)
	}
	return was
}

// scheduler runs submitted TRAIN jobs on a fixed worker pool.
type scheduler struct {
	m       *Manager
	queue   chan *Job
	history int
	wg      sync.WaitGroup
	mu      sync.Mutex
	next    int64
	jobs    map[int64]*Job
	order   []int64 // submission order, for bounded retention
	closing bool
}

func newScheduler(m *Manager, workers, depth, history int) *scheduler {
	s := &scheduler{m: m, queue: make(chan *Job, depth), history: history,
		jobs: make(map[int64]*Job)}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.run(job)
			}
		}()
	}
	return s
}

// submit registers and enqueues an async TRAIN statement. The enqueue
// happens under the scheduler mutex so drain cannot close the queue
// between the closing check and the send.
func (s *scheduler) submit(st *spec.Statement, text string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, fmt.Errorf("server: shutting down, not accepting jobs")
	}
	job := &Job{ID: s.next + 1, Model: st.Into, Statement: ledgerText(text),
		submitted: time.Now(), done: make(chan struct{}), st: st}
	job.ctx, job.stop = context.WithCancel(context.Background())
	select {
	case s.queue <- job:
	default:
		job.stop()
		return nil, fmt.Errorf("server: job queue full (%d pending)", cap(s.queue))
	}
	s.next++
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	// Bounded retention: a daemon runs for weeks, and terminal jobs carry
	// their statement and captured output. Evict the oldest terminal jobs
	// past the history limit, skipping (never evicting) live ones — a
	// single long-running job must not shield the terminal jobs completing
	// behind it from eviction, or the ledger would grow past the limit for
	// the job's whole duration. Live jobs themselves are bounded by the
	// queue depth.
	if excess := len(s.order) - s.history; excess > 0 {
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
	return job, nil
}

// run executes one job on a private session that shares the manager's
// catalog and locks; the statement trains synchronously inside the worker.
func (s *scheduler) run(job *Job) {
	defer job.stop()
	if !job.begin() {
		return
	}
	var out bytes.Buffer
	sess := s.m.newSQLSession(&out)
	if hook := s.m.Hooks.BeforeSave; hook != nil {
		sess.Guard = saveHook{s.m.locks, job, hook}
	}
	err := s.m.runSQL(job.ctx, sess, job.st)
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
func (g saveHook) Lock(name string) func() {
	if name == g.job.Model+engine.ShadowSuffix {
		g.fire(g.job.ID, g.job.Model)
	}
	return g.nameLocks.Lock(name)
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
	close(s.queue)
	s.wg.Wait()
}
