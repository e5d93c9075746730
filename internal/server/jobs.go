package server

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// JobState is the lifecycle state of an explanation job.
type JobState string

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one explanation request moving through the worker pool. All fields
// behind mu; reads go through snapshot().
type Job struct {
	ID string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu       sync.Mutex
	state    JobState
	req      ExplainRequest
	result   *ExplainResponse
	errMsg   string
	code     int // HTTP status the error maps to (0 until terminal)
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// JobStatus is the JSON shape of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	SQL   string   `json:"sql"`
	// Error and Code are set for failed/cancelled jobs; Code is the HTTP
	// status a synchronous request would have received (400, 408, 499...).
	Error string `json:"error,omitempty"`
	Code  int    `json:"code,omitempty"`
	// Result is present once State == done.
	Result     *ExplainResponse `json:"result,omitempty"`
	EnqueuedAt time.Time        `json:"enqueued_at"`
	StartedAt  *time.Time       `json:"started_at,omitempty"`
	FinishedAt *time.Time       `json:"finished_at,omitempty"`
	// QueueWaitMS is how long the job waited for a worker (enqueued →
	// started); RunMS how long it executed (started → finished). Derived
	// from the timestamps above so pollers need no time arithmetic; each is
	// present once the corresponding interval has closed.
	QueueWaitMS *float64 `json:"queue_wait_ms,omitempty"`
	RunMS       *float64 `json:"run_ms,omitempty"`
}

func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.ID,
		State:      j.state,
		SQL:        j.req.SQL,
		Error:      j.errMsg,
		Code:       j.code,
		Result:     j.result,
		EnqueuedAt: j.enqueued,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		wait := float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond)
		st.QueueWaitMS = &wait
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		if !j.started.IsZero() {
			run := float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
			st.RunMS = &run
		}
	}
	return st
}

func (j *Job) start() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state and unblocks synchronous
// waiters. state is JobDone when err is nil.
func (j *Job) finish(res *ExplainResponse, state JobState, errMsg string, code int) {
	j.mu.Lock()
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.code = code
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the per-job timeout timer
	close(j.done)
}

// jobStore indexes jobs by id and bounds how many terminal jobs are
// retained (oldest evicted first) so a long-running daemon does not grow
// without bound.
type jobStore struct {
	mu     sync.Mutex
	m      map[string]*Job
	order  []string // insertion order, for eviction
	keep   int
	nextID uint64
}

func newJobStore(keep int) *jobStore {
	return &jobStore{m: map[string]*Job{}, keep: keep}
}

// add registers the job under a fresh id and evicts the oldest terminal
// jobs beyond the retention bound.
func (s *jobStore) add(j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := "j" + strconv.FormatUint(s.nextID, 10)
	j.ID = id
	s.m[id] = j
	s.order = append(s.order, id)
	if len(s.order) > s.keep {
		kept := s.order[:0]
		excess := len(s.order) - s.keep
		for _, oid := range s.order {
			oj := s.m[oid]
			if oj == nil {
				continue // removed (refused admission); drop the stale id
			}
			evictable := false
			if excess > 0 {
				oj.mu.Lock()
				evictable = oj.state == JobDone || oj.state == JobFailed || oj.state == JobCancelled
				oj.mu.Unlock()
			}
			if evictable {
				delete(s.m, oid)
				excess--
				continue
			}
			kept = append(kept, oid)
		}
		s.order = kept
	}
	return id
}

// remove deletes a job that was refused admission, undoing add. The id
// stays in order until the next eviction sweep drops it as stale.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
}

func (s *jobStore) get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id]
}

// len reports how many jobs are currently retained (queued, running and
// kept terminal jobs) — the jobs_retained gauge.
func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
