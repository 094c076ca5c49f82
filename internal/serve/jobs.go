package serve

import (
	"fmt"
	"sync"
)

// JobStatus is the lifecycle state of an asynchronous simulation job.
type JobStatus string

// The job lifecycle: queued -> running -> done | failed. Cached
// resubmissions are born done.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is the client-visible record of one simulation submission.
type Job struct {
	// ID names the job for /v1/jobs/{id}.
	ID string `json:"id"`
	// Status is the current lifecycle state.
	Status JobStatus `json:"status"`
	// Cached reports that the result was served from the LRU cache
	// without re-running the simulation.
	Cached bool `json:"cached,omitempty"`
	// RequestID echoes the X-Request-Id of the submitting request, so a
	// polled job result is traceable back to the submission's spans and
	// access-log line.
	RequestID string `json:"request_id,omitempty"`
	// Request echoes the normalized request being simulated.
	Request SimulateRequest `json:"request"`
	// Result is present once Status is done.
	Result *SimulateResult `json:"result,omitempty"`
	// Error is present once Status is failed.
	Error string `json:"error,omitempty"`
}

// maxJobs bounds the retained finished simulation jobs.
const maxJobs = 4096

// jobStore tracks jobs by ID. Finished jobs are retained up to maxJobs
// and then evicted oldest-first, so an arbitrarily long-lived daemon
// holds a bounded job table; queued and running jobs are never evicted.
type jobStore struct {
	mu sync.Mutex
	//pftk:guardedby mu
	seq uint64
	//pftk:guardedby mu
	jobs map[string]*Job
	//pftk:guardedby mu
	finished []string // eviction order, oldest first
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

// create registers a new queued job for req, tagged with the
// submitting request's ID, and returns a snapshot of it.
func (s *jobStore) create(req SimulateRequest, requestID string) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{ID: fmt.Sprintf("job-%08d", s.seq), Status: JobQueued, Request: req, RequestID: requestID}
	s.jobs[j.ID] = j
	return *j
}

// get returns a snapshot of the job, if it exists.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// setRunning transitions a queued job to running.
func (s *jobStore) setRunning(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.Status = JobRunning
	}
}

// finish completes the job with a result, marking it cached when it was
// served from the LRU.
func (s *jobStore) finish(id string, res SimulateResult, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.Status = JobDone
	j.Result = &res
	j.Cached = cached
	s.noteFinishedLocked(id)
}

// fail completes the job with an error.
func (s *jobStore) fail(id string, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.Status = JobFailed
	j.Error = msg
	s.noteFinishedLocked(id)
}

// noteFinishedLocked records a terminal transition and evicts the oldest
// finished jobs beyond the retention cap. Callers hold s.mu.
//
//pftk:locked(mu)
func (s *jobStore) noteFinishedLocked(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > maxJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}
