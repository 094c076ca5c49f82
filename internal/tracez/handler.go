package tracez

import (
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// viewBounds are the latency bucket upper bounds (seconds) of the
// /debug/tracez per-name histograms: 10 µs to 10 s, the range from an
// in-memory cache hit to a long queued simulation, plus the implicit
// overflow bucket.
var viewBounds = []float64{
	0.00001, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// defaultViewSpans is how many recent/slowest/errored spans each name
// section lists without an explicit ?n=.
const defaultViewSpans = 5

// NameSummary aggregates every retained span of one name.
type NameSummary struct {
	// Name is the span name.
	Name string `json:"name"`
	// Count is the number of retained spans.
	Count int `json:"count"`
	// Errors counts retained spans with a non-empty Err.
	Errors int `json:"errors"`
	// MinSeconds and MaxSeconds bound the retained durations.
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	// P50Seconds, P90Seconds and P99Seconds are exact quantiles of the
	// retained durations (not bucket interpolations — the samples are
	// at hand).
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Bounds and Counts form the latency histogram; Counts has one
	// entry per bound plus a final overflow bucket, mirroring
	// obs.HistogramValue.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	// Recent holds the newest spans, newest first.
	Recent []Record `json:"recent"`
	// Slowest holds the longest spans, longest first.
	Slowest []Record `json:"slowest"`
	// Errored holds the newest failed spans, newest first.
	Errored []Record `json:"errored,omitempty"`
}

// View is the JSON document served by /debug/tracez?format=json.
type View struct {
	// Clock is "sim" for a deterministic caller-supplied clock, "wall"
	// otherwise.
	Clock string `json:"clock"`
	// Spans counts every span ever committed.
	Spans uint64 `json:"spans"`
	// Retained counts the spans currently in the ring.
	Retained int `json:"retained"`
	// Dropped counts committed spans the ring has overwritten.
	Dropped uint64 `json:"dropped"`
	// Names holds one summary per span name, sorted by name.
	Names []NameSummary `json:"names"`
}

// BuildView aggregates the current ring contents into the export shape.
// limit bounds the recent/slowest/errored lists (<= 0 means the
// default).
func (t *Tracer) BuildView(limit int) View {
	if limit <= 0 {
		limit = defaultViewSpans
	}
	v := View{Clock: "wall", Names: []NameSummary{}}
	if t == nil {
		return v
	}
	if t.sim {
		v.Clock = "sim"
	}
	recs := t.Snapshot()
	v.Spans = t.Total()
	v.Retained = len(recs)
	v.Dropped = t.Dropped()

	byName := map[string][]Record{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v.Names = append(v.Names, summarize(name, byName[name], limit))
	}
	return v
}

// summarize builds one name's section from its records (already sorted
// by (Start, Span) ascending).
func summarize(name string, recs []Record, limit int) NameSummary {
	s := NameSummary{
		Name:   name,
		Count:  len(recs),
		Bounds: viewBounds,
		Counts: make([]uint64, len(viewBounds)+1),
	}
	durs := make([]float64, 0, len(recs))
	for _, r := range recs {
		durs = append(durs, r.Duration)
		s.Counts[bucketOf(r.Duration)]++
		if r.Err != "" {
			s.Errors++
		}
	}
	sort.Float64s(durs)
	s.MinSeconds = durs[0]
	s.MaxSeconds = durs[len(durs)-1]
	s.P50Seconds = quantileSorted(durs, 0.50)
	s.P90Seconds = quantileSorted(durs, 0.90)
	s.P99Seconds = quantileSorted(durs, 0.99)

	// Recent: newest first.
	n := limit
	if n > len(recs) {
		n = len(recs)
	}
	s.Recent = make([]Record, n)
	for i := 0; i < n; i++ {
		s.Recent[i] = recs[len(recs)-1-i]
	}

	// Slowest: longest first; ties broken by span ID for determinism.
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Duration > b.Duration {
			return true
		}
		if a.Duration < b.Duration {
			return false
		}
		return a.Span < b.Span
	})
	s.Slowest = sorted[:n]

	// Errored: newest failed spans first.
	for i := len(recs) - 1; i >= 0 && len(s.Errored) < limit; i-- {
		if recs[i].Err != "" {
			s.Errored = append(s.Errored, recs[i])
		}
	}
	return s
}

// bucketOf returns the histogram bucket index for a duration.
func bucketOf(d float64) int {
	i := sort.SearchFloat64s(viewBounds, d)
	return i
}

// quantileSorted returns the nearest-rank quantile of an ascending
// slice: the ceil(q·n)-th smallest value.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q * float64(len(sorted))))
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// Handler serves the span view: HTML by default, the View JSON with
// ?format=json, and a raw span JSONL dump with ?format=jsonl. The
// optional ?n= bounds the per-name span lists.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "tracez: n must be a positive integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		switch r.URL.Query().Get("format") {
		case "", "html":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := tracezTmpl.Execute(w, t.BuildView(limit)); err != nil {
				// Header already sent; nothing more to report.
				return
			}
		case "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(t.BuildView(limit))
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = t.WriteJSONL(w)
		default:
			http.Error(w, "tracez: unknown format (valid: html, json, jsonl)", http.StatusBadRequest)
		}
	})
}

// tmplFuncs renders durations and IDs compactly in the HTML view.
var tmplFuncs = template.FuncMap{
	"ms": func(seconds float64) string {
		return fmt.Sprintf("%.3fms", seconds*1e3)
	},
	"hex": func(id uint64) string {
		return fmt.Sprintf("%016x", id)
	},
}

var tracezTmpl = template.Must(template.New("tracez").Funcs(tmplFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/tracez</title><style>
body { font-family: monospace; margin: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
.err { color: #b00; }
</style></head><body>
<h1>tracez — recent spans</h1>
<p>clock={{.Clock}} spans={{.Spans}} retained={{.Retained}} dropped={{.Dropped}}</p>
{{range .Names}}
<h2>{{.Name}}</h2>
<p>count={{.Count}} errors={{.Errors}} p50={{ms .P50Seconds}} p90={{ms .P90Seconds}} p99={{ms .P99Seconds}} max={{ms .MaxSeconds}}</p>
<table>
<tr><th class="l">kind</th><th class="l">trace</th><th>start</th><th>duration</th><th class="l">error</th><th class="l">attrs</th></tr>
{{range .Recent}}<tr><td class="l">recent</td><td class="l">{{hex .Trace}}</td><td>{{printf "%.6f" .Start}}</td><td>{{ms .Duration}}</td><td class="l err">{{.Err}}</td><td class="l">{{range .Attrs}}{{.Key}}={{.Value}} {{end}}</td></tr>
{{end}}
{{range .Slowest}}<tr><td class="l">slow</td><td class="l">{{hex .Trace}}</td><td>{{printf "%.6f" .Start}}</td><td>{{ms .Duration}}</td><td class="l err">{{.Err}}</td><td class="l">{{range .Attrs}}{{.Key}}={{.Value}} {{end}}</td></tr>
{{end}}
{{range .Errored}}<tr><td class="l">errored</td><td class="l">{{hex .Trace}}</td><td>{{printf "%.6f" .Start}}</td><td>{{ms .Duration}}</td><td class="l err">{{.Err}}</td><td class="l">{{range .Attrs}}{{.Key}}={{.Value}} {{end}}</td></tr>
{{end}}
</table>
{{end}}
</body></html>
`))
