package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pftk"
)

// FuzzSimulateCacheKey checks the /v1/simulate cache key against the
// simulation a body describes: two bodies that normalize to the same
// simulation inputs must share a key, and bodies that describe
// different simulations must not. Inputs compare by value, so -0 and 0
// are the same input; the scenario compares by its canonical JSON
// encoding. It normalizes and keys only; no simulation runs.
func FuzzSimulateCacheKey(f *testing.F) {
	seeds := [][2]string{
		{`{"loss_rate":0.02,"seed":1}`, `{"rtt":0.1,"loss_rate":0.02,"wm":64,"min_rto":1,"duration":100,"seed":1,"variant":"reno","ack_every":2}`},
		{`{"loss_rate":0.02,"burst_dur":-0}`, `{"loss_rate":0.02}`},
		{`{"loss_rate":-0}`, `{"loss_rate":0}`},
		{`{"loss_rate":0.02,"rtt":-0}`, `{"loss_rate":0.02,"rtt":0.1}`},
		{`{"loss_rate":0.02,"variant":"tahoe"}`, `{"loss_rate":0.02,"variant":"reno"}`},
		{`{"loss_rate":0.02,"wm":64,"seed":3}`, `{"loss_rate":0.02,"wm":65,"seed":3}`},
		{`{"loss_rate":0.02,"scenario":{"faults":[{"kind":"outage","start":60,"dur":3}]}}`,
			`{"loss_rate":0.02,"scenario":{"faults":[{"dur":3.0,"start":6e1,"kind":"outage"}]}}`},
		{`{"loss_rate":0.02,"scenario":{"faults":[{"kind":"outage","start":60,"dur":3}]}}`, `{"loss_rate":0.02}`},
	}
	for _, sd := range seeds {
		f.Add(sd[0], sd[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, ok := normalizedSimulate(a)
		if !ok {
			return
		}
		rb, ok := normalizedSimulate(b)
		if !ok {
			return
		}
		keyA, keyB := canonicalKey("simulate", ra), canonicalKey("simulate", rb)
		if keyA != canonicalKey("simulate", ra.normalize()) {
			t.Fatalf("normalize is not idempotent on %s", a)
		}
		if same := sameSimulation(t, ra, rb); same != (keyA == keyB) {
			t.Fatalf("same simulation = %v but equal keys = %v:\n%s\n%s", same, keyA == keyB, a, b)
		}
	})
}

// normalizedSimulate decodes body the way /v1/simulate does and returns
// the normalized request; ok is false for anything the handler would
// reject.
func normalizedSimulate(body string) (SimulateRequest, bool) {
	var r SimulateRequest
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	if err := decodeStrict(req, &r); err != nil {
		return SimulateRequest{}, false
	}
	r = r.normalize()
	return r, r.validate() == nil
}

// sameSimulation reports whether two normalized requests describe the
// same simulation: equal field values and equal canonical scenarios.
func sameSimulation(t *testing.T, a, b SimulateRequest) bool {
	t.Helper()
	sa, err := json.Marshal(a.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(b.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	a.Scenario, b.Scenario = nil, nil
	return a == b && bytes.Equal(sa, sb)
}

// TestSimulateLinuxUsesDupThresholdTwo checks that /v1/simulate infers
// a linux sender's loss events at its own fast-retransmit threshold of
// two duplicate ACKs: measured_p must be the threshold-2 analysis of
// the simulated trace, which on this trace differs from the default 3.
func TestSimulateLinuxUsesDupThresholdTwo(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	body := `{"loss_rate":0.03,"wm":32,"duration":300,"seed":11,"variant":"linux"}`
	rec := postJSON(s, "/v1/simulate", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", rec.Code, rec.Body)
	}
	var submitted Job
	if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
		t.Fatal(err)
	}
	job := waitForJob(t, s, submitted.ID)
	if job.Status != JobDone || job.Result == nil {
		t.Fatalf("job did not complete: %+v", job)
	}

	r, ok := normalizedSimulate(body)
	if !ok {
		t.Fatal("request does not normalize")
	}
	res := pftk.Sim(
		pftk.WithPath(r.RTT),
		pftk.WithBurstLoss(r.LossRate, r.BurstDur),
		pftk.WithWindow(r.Wm),
		pftk.WithMinRTO(r.MinRTO),
		pftk.WithDuration(r.Duration),
		pftk.WithSeed(r.Seed),
		pftk.WithOS(r.Variant),
		pftk.WithDelayedACKs(r.AckEvery),
	)
	two := pftk.Analyze(res.Trace, pftk.WithDupThreshold(2))
	three := pftk.Analyze(res.Trace)
	if !(two.P < three.P || two.P > three.P) {
		t.Fatalf("trace does not tell the thresholds apart: p = %v at 2 and 3", two.P)
	}
	if got := job.Result.MeasuredP; got < two.P || got > two.P {
		t.Errorf("measured_p = %v, want %v (threshold 2), not %v (threshold 3)", got, two.P, three.P)
	}
}
