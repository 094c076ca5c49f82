package tracez

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// buildFixtureTracer produces a deterministic tracer: a sim clock, two
// request traces with children, one error, one slow outlier.
func buildFixtureTracer() *Tracer {
	clock := simClock()
	tr := New(Options{Shards: 1, PerShard: 64, Now: clock})

	r1 := tr.StartRoot("POST /v1/predict")
	r1.SetAttr("request_id", "req-000001")
	c1 := r1.StartChild("eval")
	c1.End()
	r1.End()

	r2 := tr.StartRoot("POST /v1/predict")
	r2.SetAttr("request_id", "req-000002")
	c2 := r2.StartChild("eval")
	c2.SetError("bad point")
	// Make r2's eval the slow outlier: burn 10 clock ticks.
	for i := 0; i < 10; i++ {
		clock()
	}
	c2.End()
	r2.End()
	return tr
}

// updateGolden refreshes testdata goldens instead of comparing:
//
//	go test ./internal/tracez -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestHandlerJSONGolden pins the /debug/tracez?format=json document for
// a deterministic sim-clock tracer, byte for byte, against
// testdata/view.golden. An intended change to the view shape is
// accepted with -update.
func TestHandlerJSONGolden(t *testing.T) {
	tr := buildFixtureTracer()
	req := httptest.NewRequest("GET", "/debug/tracez?format=json&n=2", nil)
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	const goldenPath = "testdata/view.golden"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	if got := rec.Body.Bytes(); !bytes.Equal(got, golden) {
		t.Errorf("JSON view drifted from golden (run with -update after an intended change).\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestHandlerHTMLListsSpans(t *testing.T) {
	tr := buildFixtureTracer()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"POST /v1/predict", "eval", "bad point", "request_id=req-000001", "clock=sim"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML view missing %q", want)
		}
	}
}

func TestHandlerJSONLFormat(t *testing.T) {
	tr := buildFixtureTracer()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez?format=jsonl", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	recs, err := ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("jsonl dump has %d records, want 4", len(recs))
	}
}

func TestHandlerRejectsBadParams(t *testing.T) {
	tr := buildFixtureTracer()
	for _, url := range []string{"/debug/tracez?format=xml", "/debug/tracez?n=0", "/debug/tracez?n=x"} {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

// TestViewJSONStable re-marshals the parsed view and confirms it holds
// the documented top-level fields, guarding the public JSON contract.
func TestViewJSONStable(t *testing.T) {
	tr := buildFixtureTracer()
	var v View
	data, err := json.Marshal(tr.BuildView(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Clock != "sim" || v.Spans != 4 || v.Retained != 4 || len(v.Names) != 2 {
		t.Fatalf("view round-trip mismatch: %+v", v)
	}
}

func TestQuantileSortedNearestRank(t *testing.T) {
	// Nearest rank is the ceil(q·n)-th smallest value; rounding q·n to
	// the nearest integer instead understates the upper quantiles.
	for _, tc := range []struct {
		n    int
		q    float64
		rank int
	}{
		{6, 0.9, 6},      // q·n = 5.4: the max, not the 5th value
		{160, 0.99, 159}, // q·n = 158.4
		{10, 0.9, 9},     // q·n is an exact integer
		{1, 0.5, 1},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := quantileSorted(sorted, tc.q); got != float64(tc.rank) {
			t.Errorf("quantileSorted(n=%d, q=%g) = value %g, want rank %d", tc.n, tc.q, got, tc.rank)
		}
	}
}
