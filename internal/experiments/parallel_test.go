package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pftk/internal/hosts"
	"pftk/internal/obs"
)

// stripWallClock zeroes the only fields of a PairRun that legitimately
// depend on execution timing rather than on the simulation itself.
func stripWallClock(runs []PairRun) []PairRun {
	out := append([]PairRun(nil), runs...)
	for i := range out {
		out[i].WallSeconds = 0
	}
	return out
}

// TestParallelCampaignMatchesSerial asserts that the worker count is
// invisible in campaign results: per-trace salts make every run a pure
// function of its (pair, connection) coordinates, so 4 workers must
// produce byte-identical analysis products to the serial order.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	base := Options{HourTraceDuration: 120, ShortTraces: 6, ShortTraceDuration: 40, IntervalWidth: 60, Salt: 7}

	serialOpts, parallelOpts := base, base
	serialOpts.Workers = 1
	parallelOpts.Workers = 4

	serial := RunCampaign(serialOpts)
	parallel := RunCampaign(parallelOpts)
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(parallel.Runs))
	}
	for i := range serial.Runs {
		a, b := stripWallClock(serial.Runs[i : i+1])[0], stripWallClock(parallel.Runs[i : i+1])[0]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("hour campaign run %d (%s) differs between -j 1 and -j 4", i, a.Pair.Name())
		}
	}

	// Rendered artifacts are the user-visible output; they must match to
	// the byte.
	serialTable := table2From(serial).Tables[0].ASCII()
	parallelTable := table2From(parallel).Tables[0].ASCII()
	if serialTable != parallelTable {
		t.Errorf("Table II renders differently:\nserial:\n%s\nparallel:\n%s", serialTable, parallelTable)
	}

	serialShort := RunShortCampaign(serialOpts)
	parallelShort := RunShortCampaign(parallelOpts)
	for i := range serialShort.Runs {
		if !reflect.DeepEqual(stripWallClock(serialShort.Runs[i]), stripWallClock(parallelShort.Runs[i])) {
			t.Errorf("short campaign pair %d differs between -j 1 and -j 4", i)
		}
	}
	serialFig := fig8From(serialShort).Figures[0]
	parallelFig := fig8From(parallelShort).Figures[0]
	if !reflect.DeepEqual(serialFig, parallelFig) {
		t.Error("Fig. 8 differs between -j 1 and -j 4")
	}
}

// TestRunParallelTracesMatchSerial keeps the worker-count check sharp
// down to the trace: campaigns drop traces once analyzed, so this runs
// runParallel with the campaign's job minus the drop, at 1 and at 4
// workers, and compares every run including its full trace.
func TestRunParallelTracesMatchSerial(t *testing.T) {
	pairs := hosts.TableII()
	run := func(workers int) []PairRun {
		o := Options{Workers: workers}
		return runParallel(o, len(pairs), nil,
			func(k int, reg *obs.Registry) PairRun {
				return RunPair(pairs[k], 120, 7, 60, reg)
			},
			func(k int) string { return pairs[k].Name() })
	}
	serial, parallel := stripWallClock(run(1)), stripWallClock(run(4))
	for k := range serial {
		if len(serial[k].Result.Trace) == 0 {
			t.Fatalf("run %d (%s): no trace to compare", k, pairs[k].Name())
		}
		if !reflect.DeepEqual(serial[k], parallel[k]) {
			t.Errorf("run %d (%s) differs between 1 and 4 workers", k, pairs[k].Name())
		}
	}
}

// TestParallelObservedCampaign runs the metric-collecting path under
// parallelism: every run must still carry its own private registry
// snapshot, identical to the serial one.
func TestParallelObservedCampaign(t *testing.T) {
	base := Options{HourTraceDuration: 60, ShortTraces: 2, ShortTraceDuration: 30, IntervalWidth: 30, Salt: 3, Obs: true}
	serialOpts, parallelOpts := base, base
	serialOpts.Workers = 1
	parallelOpts.Workers = 3

	serial := RunCampaign(serialOpts)
	parallel := RunCampaign(parallelOpts)
	for i := range serial.Runs {
		sr, pr := serial.Runs[i], parallel.Runs[i]
		if sr.Obs == nil || pr.Obs == nil {
			t.Fatalf("run %d: missing snapshot (serial %v, parallel %v)", i, sr.Obs != nil, pr.Obs != nil)
		}
		if !reflect.DeepEqual(sr.Obs.Counters, pr.Obs.Counters) {
			t.Errorf("run %d: counters differ between -j 1 and -j 3", i)
		}
	}
}

// renderReports is the user-visible output of a regeneration: every
// report's tables and figures (as text and as CSV) and notes, in order.
func renderReports(t *testing.T, reports []*Report) string {
	t.Helper()
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "==== %s: %s ====\n", r.ID, r.Title)
		for _, tb := range r.Tables {
			b.WriteString(tb.ASCII())
			if err := tb.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range r.Figures {
			b.WriteString(f.Summary())
			if err := f.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// stripJSONLWallClock re-encodes a metrics JSONL stream with every
// record's wall_seconds zeroed, the one field that depends on timing.
func stripJSONLWallClock(t *testing.T, jsonl []byte) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var rec obs.RunRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("metrics record: %v", err)
		}
		rec.WallSeconds = 0
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunAllTimedOverlapMatchesSerial: with two or more workers
// RunAllTimed runs the multiflow artifact on its own goroutine beside
// the rest. The overlap must be invisible in everything but wall time:
// rendered reports and metrics JSONL (minus wall_seconds) byte-identical
// at 1, 2 and 4 workers, and onDone called once per artifact in
// artifact-list order. Run under -race it also checks the overlap shares no
// state.
func TestRunAllTimedOverlapMatchesSerial(t *testing.T) {
	wantOrder := []string{"table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"correlation", "lossmodels", "shortflows", "fairness", "multiflow", "regimes", "evolution", "nonstationary"}
	var refReports, refMetrics string
	for _, workers := range []int{1, 2, 4} {
		var jsonl bytes.Buffer
		mw := obs.NewJSONLWriter(&jsonl)
		o := Options{HourTraceDuration: 60, ShortTraces: 2, ShortTraceDuration: 5, IntervalWidth: 20, Salt: 3, Workers: workers, Metrics: mw}
		var order []string
		reports := RunAllTimed(o, func(r *Report, wall float64) {
			order = append(order, r.ID)
			if !(wall >= 0) {
				t.Errorf("workers=%d: %s wall time %v", workers, r.ID, wall)
			}
		})
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order, wantOrder) {
			t.Fatalf("workers=%d: onDone order %v, want %v", workers, order, wantOrder)
		}
		for i, r := range reports {
			if r.ID != wantOrder[i] {
				t.Fatalf("workers=%d: report %d is %s, want %s", workers, i, r.ID, wantOrder[i])
			}
		}
		text, metrics := renderReports(t, reports), stripJSONLWallClock(t, jsonl.Bytes())
		if metrics == "" {
			t.Fatalf("workers=%d: no metrics records", workers)
		}
		if workers == 1 {
			refReports, refMetrics = text, metrics
			continue
		}
		if text != refReports {
			t.Errorf("workers=%d: rendered reports differ from the serial run", workers)
		}
		if metrics != refMetrics {
			t.Errorf("workers=%d: metrics JSONL (minus wall_seconds) differs from the serial run", workers)
		}
	}
}
