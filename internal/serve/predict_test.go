package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestPredictMissesShareOneJob pins the dispatch contract: a request
// with several cache misses costs exactly one worker-pool job, which
// evaluates every missed point, and a request served wholly from the
// cache submits none.
func TestPredictMissesShareOneJob(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	const body = `{"requests":[
		{"p":0.01,"rtt":0.2,"t0":2.0},{"p":0.02,"rtt":0.2,"t0":2.0},
		{"p":0.03,"rtt":0.2,"t0":2.0},{"p":0.04,"rtt":0.2,"t0":2.0}]}`
	for round := 0; round < 2; round++ {
		if rec := postJSON(s, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d, body %s", round, rec.Code, rec.Body)
		}
	}
	snap := reg.Snapshot()
	if jobs := snap.Counter("serve.batch.jobs"); jobs != 1 {
		t.Errorf("serve.batch.jobs = %d, want 1 (one job for the first request's 4 misses, none for the all-hit repeat)", jobs)
	}
	if evals := snap.Counter("serve.predict.evals"); evals != 4 {
		t.Errorf("serve.predict.evals = %d, want 4", evals)
	}
	if hits := snap.Counter("serve.cache.hits"); hits != 4 {
		t.Errorf("serve.cache.hits = %d, want 4", hits)
	}
}

// TestPredictHangupStillFillsCache covers a client that hangs up while
// its miss job waits in the queue: the handler returns without writing
// a response, the job still runs and fills the cache, and the next
// identical request is a hit that evaluates nothing.
func TestPredictHangupStillFillsCache(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-release }) {
		t.Fatal("could not occupy the worker")
	}
	<-started

	const body = `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.ServeHTTP(rec, req)
	}()
	// The miss job is queued behind the blocker once the depth reads 1.
	for deadline := time.Now().Add(5 * time.Second); s.pool.QueueDepth() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the predict miss job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-returned
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
		t.Fatalf("hung-up handler wrote a response: headers %v, body %q", rec.Header(), rec.Body)
	}
	if evals := reg.Snapshot().Counter("serve.predict.evals"); evals != 0 {
		t.Fatalf("serve.predict.evals = %d before the job could run, want 0", evals)
	}

	close(release)
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counter("serve.predict.evals") != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned miss job never evaluated its point")
		}
		time.Sleep(time.Millisecond)
	}
	// evals is counted just before the cache put; wait for the entry.
	for deadline := time.Now().Add(5 * time.Second); s.predCache.len() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned miss job never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}

	hit := postJSON(s, "/v1/predict", body)
	if hit.Code != http.StatusOK {
		t.Fatalf("follow-up status %d, body %s", hit.Code, hit.Body)
	}
	snap := reg.Snapshot()
	if hits := snap.Counter("serve.cache.hits"); hits != 1 {
		t.Errorf("serve.cache.hits = %d, want 1 (the abandoned job must fill the cache)", hits)
	}
	if evals := snap.Counter("serve.predict.evals"); evals != 1 {
		t.Errorf("serve.predict.evals = %d after the hit, want it unchanged at 1", evals)
	}
	fresh, _ := newTestServer(t, Config{})
	if want := postJSON(fresh, "/v1/predict", body); !bytes.Equal(hit.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("cached body differs from a fresh evaluation:\n%s\nvs\n%s", hit.Body, want.Body)
	}
}

// TestPredictUnboundedRateIs400 covers points whose rate has no finite
// value (p = 0 without a window limit, TD-only at p = 0): JSON cannot
// carry an infinity, so the request fails with 400 instead of taking
// down the worker that tried to encode it, and the server keeps serving.
func TestPredictUnboundedRateIs400(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"rtt":1,"t0":1}`,
		`{"p":0,"rtt":0.2,"t0":2,"wm":12,"models":["tdonly"]}`,
		`{"requests":[{"p":0.02,"rtt":0.2,"t0":2},{"p":0,"rtt":0.2,"t0":2}]}`,
	} {
		rec := postJSON(s, "/v1/predict", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "no finite rate") {
			t.Errorf("%s: status %d, body %s; want 400 naming the unbounded rate", body, rec.Code, rec.Body)
		}
	}
	if rec := postJSON(s, "/v1/predict", `{"p":0,"rtt":0.2,"t0":2,"wm":12,"models":["full"]}`); rec.Code != http.StatusOK {
		t.Errorf("window-limited p = 0: status %d, body %s; want 200", rec.Code, rec.Body)
	}
}

// TestLatencyHistogramResolvesHandlerP50 records a known spread of
// handler-scale samples (20–45 µs) into the server's latency histogram
// and requires the exported p50 to fall inside the bucket that holds
// the exact p50, and that bucket to be a resolved one rather than the
// catch-all first bucket that starts at zero.
func TestLatencyHistogramResolvesHandlerP50(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	samples := make([]float64, 1001)
	for i := range samples {
		// A deterministic, skewed spread: denser near 25 µs, tail to 45 µs.
		x := float64(i) / float64(len(samples)-1)
		samples[i] = 20e-6 + 25e-6*x*x
		s.mLatency.Observe(samples[i])
	}
	sort.Float64s(samples)
	exact := samples[len(samples)/2]

	h, ok := reg.Snapshot().Histograms["serve.http.latency.seconds"]
	if !ok {
		t.Fatal("serve.http.latency.seconds missing from the snapshot")
	}
	b := sort.SearchFloat64s(h.Bounds, exact) // first bound >= exact, as Observe buckets
	if b == 0 || b == len(h.Bounds) {
		t.Fatalf("exact p50 %.3g s is not resolved by the buckets (index %d of %v)", exact, b, h.Bounds)
	}
	lo, hi := h.Bounds[b-1], h.Bounds[b]
	if !(h.P50 > lo && h.P50 <= hi) {
		t.Errorf("exported p50 = %.3g s, want it in the exact p50's bucket (%.3g, %.3g] (exact %.3g s)", h.P50, lo, hi, exact)
	}
}

// FuzzPredictCacheKey is the cache-poisoning guard on /v1/predict: two
// single-point bodies whose normalized requests encode to the same JSON
// must share a cache key and get byte-identical responses, whether
// served from a miss or a hit; bodies whose normalized forms differ must
// get different keys.
func FuzzPredictCacheKey(f *testing.F) {
	seeds := [][2]string{
		{`{"p":0.02,"rtt":0.2,"t0":2.0}`, `{"p":0.02,"rtt":0.2,"t0":2.0,"b":2,"models":["tdonly","full","approx","throughput","full"]}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"wm":12}`, `{"p":2e-2,"rtt":0.20,"t0":2.0,"wm":12.0}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"wm":-0}`, `{"p":0.02,"rtt":0.2,"t0":2}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"wm":-5}`, `{"p":0.02,"rtt":0.2,"t0":2,"wm":0}`},
		{`{"p":0,"rtt":0.2,"t0":2}`, `{"p":-0,"rtt":0.2,"t0":2}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"b":1}`, `{"p":0.02,"rtt":0.2,"t0":2,"b":2}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"wm":8,"models":["markov"]}`, `{"p":0.02,"rtt":0.2,"t0":2,"wm":8,"models":["markov","markov"]}`},
		{`{"p":0.02,"rtt":0.2,"t0":2,"models":["full"]}`, `{"p":0.02,"rtt":0.2,"t0":2,"models":["approx"]}`},
		{`{"rtt":1,"t0":1}`, `{"p":0,"rtt":1,"t0":1,"wm":0}`},
	}
	for _, sd := range seeds {
		f.Add(sd[0], sd[1])
	}
	hot := New(Config{Workers: 1, QueueDepth: 8})
	f.Cleanup(hot.Close)
	cold := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 1})
	f.Cleanup(cold.Close)

	f.Fuzz(func(t *testing.T, a, b string) {
		ra, ok := normalizedPoint(a)
		if !ok {
			return
		}
		rb, ok := normalizedPoint(b)
		if !ok {
			return
		}
		formA, formB := canonicalForm(t, ra), canonicalForm(t, rb)
		sameForm := bytes.Equal(formA, formB)
		if sameKey := predictKey(ra) == predictKey(rb); sameForm != sameKey {
			t.Fatalf("equal normalized forms = %v but equal keys = %v:\n%s\n%s", sameForm, sameKey, formA, formB)
		}
		if !sameForm {
			return
		}
		first := postJSON(hot, "/v1/predict", a)
		second := postJSON(hot, "/v1/predict", b) // a hit on a's entry
		miss := postJSON(cold, "/v1/predict", b)
		// A model that cannot evaluate the point (the only failure left
		// after validation) must fail the same way for both spellings.
		if first.Code != second.Code || first.Code != miss.Code {
			t.Fatalf("statuses %d, %d, %d for equal forms %s", first.Code, second.Code, miss.Code, formA)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) || !bytes.Equal(first.Body.Bytes(), miss.Body.Bytes()) {
			t.Fatalf("equal normalized forms got different responses:\n%s\n%s\n%s", first.Body, second.Body, miss.Body)
		}
	})
}

// normalizedPoint decodes body the way /v1/predict does and returns the
// normalized single-point request; ok is false for anything the handler
// would reject or that is a batch.
func normalizedPoint(body string) (PredictRequest, bool) {
	var payload predictPayload
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	if err := decodeStrict(req, &payload); err != nil || payload.Requests != nil {
		return PredictRequest{}, false
	}
	r := payload.PredictRequest.normalize()
	if r.validate() != nil {
		return PredictRequest{}, false
	}
	return r, true
}

// canonicalForm is a normalized request's JSON encoding — exactly what a
// predict response echoes back as its "request".
func canonicalForm(t *testing.T, r PredictRequest) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
