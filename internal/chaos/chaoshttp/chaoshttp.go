// Package chaoshttp drives chaos campaigns against a live pftkd: the
// same generated cases the local runner checks in-process are submitted
// over HTTP to /v1/simulate, every daemon response is cross-checked
// against the in-process oracle (same request, same bytes, or the
// daemon has diverged from the library), and resubmissions must replay
// from the daemon's cache exactly.
//
// It lives in its own package, outside the deterministic core: talking
// to a real daemon means real wall clocks, real sockets and real
// processes, none of which belong in internal/chaos proper (whose
// package-wide determinism is enforced by pftklint).
package chaoshttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"pftk/internal/chaos"
	"pftk/internal/serve"
)

// Violation names used by the HTTP harness, alongside the chaos.Inv*
// set.
const (
	// InvHTTPOracle is a daemon result that differs from the in-process
	// oracle's for the same request.
	InvHTTPOracle = "http-oracle"
	// InvHTTPCache is a resubmission that did not replay exactly from
	// the daemon's cache.
	InvHTTPCache = "http-cache"
	// InvHTTPProto is a protocol-level failure: unexpected status code,
	// malformed body, job stuck outside a terminal state.
	InvHTTPProto = "http-proto"
)

// Request converts a generated case into the daemon's wire request.
// The mapping is field-for-field; the case's Index intentionally stays
// local (two campaigns' case 7 with equal parameters must share one
// cache entry).
func Request(c chaos.Case) serve.SimulateRequest {
	return serve.SimulateRequest{
		RTT:      c.RTT,
		LossRate: c.LossRate,
		BurstDur: c.BurstDur,
		Wm:       c.Wm,
		MinRTO:   c.MinRTO,
		Duration: c.Duration,
		Seed:     c.Seed,
		Variant:  c.Variant,
		AckEvery: c.AckEvery,
		Scenario: c.Scenario,
	}
}

// FeedConfig parameterizes one HTTP campaign.
type FeedConfig struct {
	// URL is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Spec is the case distribution; nil selects chaos.DefaultSpec.
	Spec *chaos.Spec
	// Seed and Cases select the campaign slice to feed.
	Seed  uint64
	Cases int
	// Timeout bounds each job's submit-to-terminal wait (0 = 30 s).
	Timeout time.Duration
}

// FeedReport summarizes one HTTP campaign.
type FeedReport struct {
	// Submitted counts cases sent to the daemon.
	Submitted int `json:"submitted"`
	// Completed counts jobs that reached done.
	Completed int `json:"completed"`
	// CacheHits counts resubmissions served from the daemon's cache.
	CacheHits int `json:"cache_hits"`
	// Violations lists every cross-check failure.
	Violations []chaos.Violation `json:"violations,omitempty"`
}

// Failed reports whether any cross-check failed.
func (r *FeedReport) Failed() bool { return len(r.Violations) > 0 }

// violate appends a formatted violation.
func (r *FeedReport) violate(inv, format string, args ...any) {
	r.Violations = append(r.Violations, chaos.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Feed generates cases from (Spec, Seed) and runs each through the
// daemon: submit, wait for the terminal state, cross-check the result
// against the in-process oracle, then resubmit and require an exact
// cache replay. Returns an error only for environmental failures (the
// daemon unreachable); divergences are violations in the report.
func Feed(cfg FeedConfig) (*FeedReport, error) {
	sp := cfg.Spec
	if sp == nil {
		def := chaos.DefaultSpec()
		sp = &def
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	rep := &FeedReport{}
	for i := 0; i < cfg.Cases; i++ {
		c, err := chaos.Generate(sp, cfg.Seed, i)
		if err != nil {
			rep.violate(chaos.InvGenerate, "case %d: %v", i, err)
			continue
		}
		req := Request(c)
		oracle, err := serve.Run(req)
		if err != nil {
			rep.violate(InvHTTPOracle, "case %d: local oracle refused the request: %v", i, err)
			continue
		}
		oracleJSON, err := json.Marshal(oracle)
		if err != nil {
			return nil, err
		}

		rep.Submitted++
		job, status, err := submit(http.DefaultClient, cfg.URL, req, fmt.Sprintf("chaos-%d", i))
		if err != nil {
			return rep, fmt.Errorf("case %d: %w", i, err)
		}
		switch status {
		case http.StatusAccepted:
			job, err = waitTerminal(http.DefaultClient, cfg.URL, job.ID, timeout)
			if err != nil {
				return rep, fmt.Errorf("case %d: %w", i, err)
			}
		case http.StatusOK:
			// Served from cache (an earlier campaign, or a duplicate
			// draw); the cross-checks below still apply.
		default:
			rep.violate(InvHTTPProto, "case %d: submit returned status %d", i, status)
			continue
		}
		if job.Status != serve.JobDone || job.Result == nil {
			rep.violate(InvHTTPProto, "case %d: job %s ended %q (error %q), want done",
				i, job.ID, job.Status, job.Error)
			continue
		}
		rep.Completed++
		gotJSON, err := json.Marshal(job.Result)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(gotJSON, oracleJSON) {
			rep.violate(InvHTTPOracle, "case %d: daemon result diverges from local oracle:\n%s\nvs\n%s",
				i, gotJSON, oracleJSON)
			continue
		}

		// Resubmission must be an exact cache replay.
		again, status, err := submit(http.DefaultClient, cfg.URL, req, fmt.Sprintf("chaos-%d-replay", i))
		if err != nil {
			return rep, fmt.Errorf("case %d replay: %w", i, err)
		}
		if status != http.StatusOK || !again.Cached || again.Status != serve.JobDone || again.Result == nil {
			rep.violate(InvHTTPCache, "case %d: resubmission status=%d cached=%v job=%q",
				i, status, again.Cached, again.Status)
			continue
		}
		replayJSON, err := json.Marshal(again.Result)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(replayJSON, gotJSON) {
			rep.violate(InvHTTPCache, "case %d: cached replay differs from first result:\n%s\nvs\n%s",
				i, replayJSON, gotJSON)
			continue
		}
		rep.CacheHits++
	}
	return rep, nil
}

// submit POSTs one simulate request and decodes the job envelope.
func submit(client *http.Client, baseURL string, req serve.SimulateRequest, requestID string) (serve.Job, int, error) {
	var job serve.Job
	body, err := json.Marshal(req)
	if err != nil {
		return job, 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return job, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", requestID)
	resp, err := client.Do(hreq)
	if err != nil {
		return job, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return job, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &job); err != nil {
			return job, resp.StatusCode, fmt.Errorf("decoding job envelope: %w (body %.200s)", err, data)
		}
	}
	return job, resp.StatusCode, nil
}

// waitTerminal polls the job until done or failed, bounded by timeout.
func waitTerminal(client *http.Client, baseURL, jobID string, timeout time.Duration) (serve.Job, error) {
	deadline := time.Now().Add(timeout)
	var job serve.Job
	for {
		resp, err := client.Get(baseURL + "/v1/jobs/" + jobID)
		if err != nil {
			return job, err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		_ = resp.Body.Close()
		if err != nil {
			return job, err
		}
		if resp.StatusCode != http.StatusOK {
			return job, fmt.Errorf("job %s: status %d (body %.200s)", jobID, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return job, err
		}
		if job.Status == serve.JobDone || job.Status == serve.JobFailed {
			return job, nil
		}
		if time.Now().After(deadline) {
			return job, fmt.Errorf("job %s still %q after %v", jobID, job.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
