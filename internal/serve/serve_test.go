package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pftk/internal/core"
	"pftk/internal/obs"
)

// newTestServer returns a small Server plus its registry; the caller owns
// Close.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.New()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s, cfg.Registry
}

// postJSON performs an in-process POST of body against the handler.
func postJSON(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// getPath performs an in-process GET against the handler.
func getPath(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestPredictGoldenValues(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := postJSON(s, "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	pr := core.Params{RTT: 0.2, T0: 2.0, Wm: 12, B: 2}
	want := map[string]float64{
		ModelNameFull:       core.SendRateFull(0.02, pr),
		ModelNameApprox:     core.SendRateApprox(0.02, pr),
		ModelNameTDOnly:     core.SendRateTDOnly(0.02, 0.2, 2),
		ModelNameThroughput: core.Throughput(0.02, pr),
	}
	if len(resp.Rates) != len(want) {
		t.Fatalf("got models %v, want %v", resp.Rates, want)
	}
	for name, rate := range want {
		got := resp.Rates[name]
		if math.Abs(got-rate) > 1e-12*math.Max(1, math.Abs(rate)) {
			t.Errorf("%s: got %v, want %v", name, got, rate)
		}
	}
}

func TestPredictBatchOrderAndValues(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var b strings.Builder
	b.WriteString(`{"requests":[`)
	ps := []float64{0.001, 0.01, 0.1, 0.01} // includes a duplicate point
	for i, p := range ps {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"p":%g,"rtt":0.2,"t0":2.0,"wm":12,"models":["full"]}`, p)
	}
	b.WriteString(`]}`)
	rec := postJSON(s, "/v1/predict", b.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(ps) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(ps))
	}
	pr := core.Params{RTT: 0.2, T0: 2.0, Wm: 12, B: 2}
	for i, p := range ps {
		if got, want := resp.Results[i].Rates[ModelNameFull], core.SendRateFull(p, pr); got != want {
			t.Errorf("result %d (p=%g): got %v, want %v", i, p, got, want)
		}
	}
}

func TestPredictBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4})
	cases := []struct {
		name, body string
		wantInBody string
	}{
		{"malformed json", `{"p":0.02,`, "bad request body"},
		{"unknown field", `{"p":0.02,"rtt":0.2,"t0":2.0,"loss":1}`, "unknown field"},
		{"trailing garbage", `{"p":0.02,"rtt":0.2,"t0":2.0} {}`, "trailing data"},
		{"p out of range", `{"p":1.5,"rtt":0.2,"t0":2.0}`, "p must be in [0, 1]"},
		{"negative rtt", `{"p":0.02,"rtt":-1,"t0":2.0}`, "rtt must be positive"},
		{"zero t0", `{"p":0.02,"rtt":0.2,"t0":0}`, "t0 must be positive"},
		{"unknown model", `{"p":0.02,"rtt":0.2,"t0":2.0,"models":["mathis"]}`, "unknown model"},
		{"markov without wm", `{"p":0.02,"rtt":0.2,"t0":2.0,"models":["markov"]}`, "needs wm"},
		{"markov at p=0", `{"p":0,"rtt":0.2,"t0":2.0,"wm":8,"models":["markov"]}`, "strictly inside"},
		{"markov state space", `{"p":1e-6,"rtt":0.2,"t0":2.0,"wm":65536,"b":2,"models":["markov"]}`, "wm·b at most 4096"},
		{"empty batch", `{"requests":[]}`, "empty batch"},
		{"oversized batch", `{"requests":[{},{},{},{},{}]}`, "exceeds limit"},
		{"bad batch item", `{"requests":[{"p":0.02,"rtt":0.2,"t0":2.0},{"p":-1,"rtt":0.2,"t0":2.0}]}`, "request 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(s, "/v1/predict", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.wantInBody) {
				t.Errorf("body %q missing %q", rec.Body.String(), tc.wantInBody)
			}
		})
	}
}

func TestPredictCacheHitSkipsRecompute(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	body := `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	first := postJSON(s, "/v1/predict", body)
	second := postJSON(s, "/v1/predict", body)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("status %d / %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", first.Body, second.Body)
	}
	snap := reg.Snapshot()
	if hits := snap.Counter("serve.cache.hits"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := snap.Counter("serve.cache.misses"); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

func TestPredictCacheKeyNormalization(t *testing.T) {
	// Spelled-out defaults and implicit defaults are the same request,
	// so the second spelling must hit the first one's cache entry.
	s, reg := newTestServer(t, Config{})
	if rec := postJSON(s, "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0}`); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	rec := postJSON(s, "/v1/predict",
		`{"p":0.02,"rtt":0.2,"t0":2.0,"b":2,"models":["tdonly","full","approx","throughput","full"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if hits := reg.Snapshot().Counter("serve.cache.hits"); hits != 1 {
		t.Errorf("cache hits = %d, want 1 (normalization should unify the spellings)", hits)
	}
}

// waitForJob polls the job endpoint until the job leaves the queue.
func waitForJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := getPath(s, "/v1/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("job poll status %d: %s", rec.Code, rec.Body)
		}
		var job Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == JobDone || job.Status == JobFailed {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func TestSimulateJobLifecycleAndExactCache(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	body := `{"loss_rate":0.02,"duration":5,"seed":42}`

	rec := postJSON(s, "/v1/simulate", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", rec.Code, rec.Body)
	}
	var submitted Job
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.Status != JobQueued && submitted.Status != JobRunning {
		t.Fatalf("fresh job status %q", submitted.Status)
	}
	job := waitForJob(t, s, submitted.ID)
	if job.Status != JobDone || job.Result == nil {
		t.Fatalf("job did not complete: %+v", job)
	}
	if job.Cached {
		t.Fatal("first run must not be marked cached")
	}
	if job.Result.PacketsSent == 0 || job.Result.SendRate <= 0 {
		t.Fatalf("degenerate result: %+v", job.Result)
	}

	// Resubmission: same canonical request, exact cached result, no
	// second simulation.
	rec2 := postJSON(s, "/v1/simulate", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 (immediate cached completion); body %s", rec2.Code, rec2.Body)
	}
	var job2 Job
	if err := json.Unmarshal(rec2.Body.Bytes(), &job2); err != nil {
		t.Fatal(err)
	}
	if job2.Status != JobDone || !job2.Cached {
		t.Fatalf("resubmit not served from cache: %+v", job2)
	}
	got, _ := json.Marshal(job2.Result)
	want, _ := json.Marshal(job.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", got, want)
	}
	snap := reg.Snapshot()
	if n := snap.Counter("serve.jobs.completed"); n != 1 {
		t.Errorf("jobs.completed = %d, want 1 (the resubmission must not re-run)", n)
	}
	if n := snap.Counter("serve.cache.hits"); n != 1 {
		t.Errorf("cache.hits = %d, want 1", n)
	}

	// Same parameters with a different seed is a different canonical
	// request and must miss.
	rec3 := postJSON(s, "/v1/simulate", `{"loss_rate":0.02,"duration":5,"seed":43}`)
	if rec3.Code != http.StatusAccepted {
		t.Fatalf("different-seed submit status %d, want 202", rec3.Code)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantInBody string
	}{
		{"malformed", `{`, "bad request body"},
		{"negative duration", `{"loss_rate":0.02,"duration":-5}`, "duration must be positive"},
		{"loss out of range", `{"loss_rate":1.5}`, "loss_rate must be in [0, 1]"},
		{"unknown variant", `{"loss_rate":0.02,"variant":"cubic"}`, "unknown variant"},
		{"negative wm", `{"loss_rate":0.02,"wm":-3}`, "wm must be at least 1"},
		{"excessive duration", `{"loss_rate":0.02,"duration":1e9}`, "at most"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(s, "/v1/simulate", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.wantInBody) {
				t.Errorf("body %q missing %q", rec.Body.String(), tc.wantInBody)
			}
		})
	}
}

func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the single worker and fill the single queue slot with
	// blocking jobs, so any further admission must be rejected.
	release := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-release }) {
		t.Fatal("could not occupy worker")
	}
	<-started
	if !s.pool.TrySubmit(func() { <-release }) {
		t.Fatal("could not fill queue slot")
	}
	defer close(release)

	rec := postJSON(s, "/v1/simulate", `{"loss_rate":0.02,"duration":5,"seed":1}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var job Job
	if err := json.Unmarshal(postJSON(s, "/v1/simulate", `{"loss_rate":0.02,"duration":5,"seed":1}`).Body.Bytes(), &job); err == nil && job.Status == JobDone {
		t.Error("second rejected submission claims completion")
	}

	// Predictions flow through the same admission control.
	recP := postJSON(s, "/v1/predict", `{"p":0.02,"rtt":0.2,"t0":2.0}`)
	if recP.Code != http.StatusTooManyRequests {
		t.Fatalf("predict status %d, want 429", recP.Code)
	}
	if n := reg.Snapshot().Counter("serve.http.rejected"); n < 3 {
		t.Errorf("rejected counter = %d, want >= 3", n)
	}
}

func TestJobEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := getPath(s, "/v1/jobs/job-12345678")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", rec.Code)
	}
	if rec := postJSON(s, "/v1/jobs/whatever", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST to jobs status %d, want 405", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 3})
	rec := getPath(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("status = %v, want ok", health["status"])
	}
	if health["workers"] != float64(3) {
		t.Errorf("workers = %v, want 3", health["workers"])
	}
	recM := getPath(s, "/v1/metrics")
	if recM.Code != http.StatusOK {
		t.Fatalf("metrics status %d", recM.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(recM.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("serve.http.requests") == 0 {
		t.Error("request counter missing from metrics snapshot")
	}
}

func TestGetPredictMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if rec := getPath(s, "/v1/predict"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict status %d, want 405", rec.Code)
	}
}

// TestRealHTTPRoundTrip exercises the service over a real listener — the
// same path pftkd wires up — rather than the in-process recorder.
func TestRealHTTPRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Rates[ModelNameFull] <= 0 {
		t.Fatalf("degenerate rate: %+v", pr)
	}
}
