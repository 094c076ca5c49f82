package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"pftk/internal/core"
	"pftk/internal/tracez"
)

// layerMetric is one per-layer number of the traced run and the
// end-to-end metric it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerCatalog lists every per-layer metric, in print order. Every
// traced run reports all of them; a layer a workload does not exercise
// reads 0 with n=0.
var layerCatalog = []layerMetric{
	{"http.outside_us_p50", "us", "lat_p50_us"},
	{"serve.handler_us_p50", "us", "lat_p50_us"},
	{"serve.handler_us_p99", "us", "lat_p99_us"},
	{"serve.cache_us_p50", "us", "lat_p50_us"},
	{"serve.admission_us_p50", "us", "lat_p50_us"},
	{"serve.queue_wait_us_p50", "us", "lat_p50_us"},
	{"serve.eval_us_p50", "us", "lat_p50_us"},
	{"serve.encode_us_p50", "us", "lat_p50_us"},
	{"serve.hit_ratio", "ratio", "cpu_us_per_req"},
	{"serve.points_per_job", "points", "lat_p50_us"},
	{"serve.coalesced_per_miss", "ratio", "cpu_us_per_req"},
	{"serve.reject_frac", "ratio", "failed_frac"},
	{"workpool.wait_us_p50", "us", "lat_p50_us"},
	{"workpool.service_us_p50", "us", "lat_p50_us"},
	{"core.eval_ns", "ns", "lat_p50_us"},
	{"markov.solve_us_p50", "us", "cpu_us_per_req"},
	{"markov.solve_us_p99", "us", "lat_p99_us"},
	{"experiments.campaign_s", "s", "regen_s"},
	{"experiments.multiflow_s", "s", "regen_s"},
	{"experiments.fairness_s", "s", "regen_s"},
	{"experiments.nonstationary_s", "s", "regen_s"},
	{"experiments.lossmodels_s", "s", "regen_s"},
	{"experiments.other_s", "s", "regen_s"},
	{"sim.events", "count", "regen_s"},
	{"sim.ns_per_event", "ns", "regen_s"},
	{"netem.drops", "count", "none: must repeat exactly for a seed"},
	{"reno.timeouts", "count", "none: must repeat exactly for a seed"},
	{"go.allocs_per_op", "count", "cpu_us_per_req"},
	{"go.alloc_bytes_per_op", "B", "cpu_us_per_req"},
	{"go.gc_per_s", "1/s", "lat_p99_us"},
	{"trace.overhead_frac", "ratio", "none: how far the budget can be trusted"},
	{"layers.unattributed_frac", "ratio", "none: how far the budget can be trusted"},
}

// layerValue is one measured per-layer number with its sample count.
type layerValue struct {
	value float64
	n     int
	note  string
}

// budget prints every catalog metric next to the end-to-end figure it
// should move (e2e, measured in the same traced run) and returns them as
// result metrics.
func budget(workload string, vals map[string]layerValue, e2e map[string]float64) map[string]metric {
	fmt.Printf("layer budget (%s); each number is followed by its sample count and the end-to-end metric it should move:\n", workload)
	rep := newReport()
	for _, m := range layerCatalog {
		v, ok := vals[m.name]
		note := "moves " + m.moves
		if ref, ok := e2e[m.moves]; ok {
			note += fmt.Sprintf(" (%.6g in this run)", ref)
		}
		if !ok {
			note = "not exercised by " + workload
		} else if v.note != "" {
			note += "; " + v.note
		}
		rep.set(m.name, v.value, m.unit, v.n, note)
	}
	return rep.metrics
}

// p50 and p99 are sample quantiles as layer values.
func p50(xs []float64) layerValue { return layerValue{value: quantile(xs, 0.5), n: len(xs)} }
func p99(xs []float64) layerValue { return layerValue{value: quantile(xs, 0.99), n: len(xs)} }

// spanStats are the self times of the server's own tracez spans for the
// requests the span ring still holds in full.
type spanStats struct {
	self     map[string][]float64 // µs by span name
	covered  map[string]float64   // request id → µs of its handler covered by child spans
	requests int                  // predict requests whose spans were all retained
	spans    int                  // records in the ring
	dropped  uint64               // records the ring had overwritten
}

// analyzeSpans reads a tracer snapshot. The ring is sharded by span ID
// and overwrites oldest-first, so every span ending after the latest of
// the shards' oldest retained end times is still present; a request
// whose root span starts after that cutoff (and after from) therefore
// has all its spans. Self time is a span's duration minus the union of
// its children.
func analyzeSpans(recs []tracez.Record, shards uint64, from float64, dropped uint64) spanStats {
	st := spanStats{self: map[string][]float64{}, covered: map[string]float64{}, spans: len(recs), dropped: dropped}
	oldest := make([]float64, shards)
	for i := range oldest {
		oldest[i] = math.Inf(1)
	}
	children := map[uint64][]tracez.Record{}
	for _, r := range recs {
		sh := r.Span & (shards - 1)
		oldest[sh] = math.Min(oldest[sh], r.Start+r.Duration)
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	cutoff := from
	for _, o := range oldest {
		if !math.IsInf(o, 1) {
			cutoff = math.Max(cutoff, o)
		}
	}
	for _, r := range recs {
		if r.Parent != 0 || r.Start < cutoff {
			continue
		}
		kids := children[r.Span]
		switch {
		case r.Name == "POST /v1/predict":
			for _, k := range kids {
				st.self[k.Name] = append(st.self[k.Name], selfTime(k, children[k.Span]))
			}
			st.covered[attr(r, "request_id")] = r.Duration*1e6 - selfTime(r, kids)
			st.requests++
		case strings.HasPrefix(r.Name, "workpool."):
			st.self[r.Name] = append(st.self[r.Name], selfTime(r, kids))
		}
	}
	return st
}

// attr returns the value of a span attribute, or "".
func attr(r tracez.Record, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// selfTime is r's duration minus the union of its children's intervals
// clipped to r, in µs.
func selfTime(r tracez.Record, kids []tracez.Record) float64 {
	lo, hi := r.Start, r.Start+r.Duration
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(k.Start, lo), math.Min(k.Start+k.Duration, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, lo
	for _, v := range ivs {
		a := math.Max(v.a, end)
		if v.b > a {
			covered += v.b - a
			end = v.b
		}
	}
	return math.Max(r.Duration-covered, 0) * 1e6
}

// coreEvalNs times the four closed-form models of a default request
// (core.SendRateApprox, SendRateFull, SendRateTDOnly, Throughput) over
// pts, repeating passes for at least 200 ms. It returns ns per point,
// the number of points evaluated, and the sum of all rates (which keeps
// the calls from being optimized away and must be finite).
func coreEvalNs(pts []point) (float64, int, float64) {
	total, n := 0.0, 0
	t := time.Now()
	for n == 0 || time.Since(t) < 200*time.Millisecond {
		for _, pt := range pts {
			pr := core.Params{RTT: pt.RTT, T0: pt.T0, Wm: pt.Wm, B: core.DefaultB}
			total += core.SendRateApprox(pt.P, pr) + core.SendRateFull(pt.P, pr) +
				core.SendRateTDOnly(pt.P, pt.RTT, core.DefaultB) + core.Throughput(pt.P, pr)
		}
		n += len(pts)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n), n, total
}

// tracedPredict is the traced measurement of a predict workload: half
// the window untraced (the handler timer off), half traced (the timer on,
// request ids kept for the join), then the server's span ring and
// registry are read back and joined on X-Request-Id.
func tracedPredict(cfg runConfig, s *server, clients []*client, sample []point, orc *oracle, setup float64) (result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	wa := timed(s, clients, half, false)
	s.timer.on.Store(true)
	from := s.tracer.NowSeconds()
	wb := timed(s, clients, half, true)
	s.timer.on.Store(false)
	handler := s.timer.take()
	st := analyzeSpans(s.tracer.Snapshot(), 8, from, s.tracer.Dropped())

	ea, eb := wa.e2e(), wb.e2e()
	both := merge([]window{wa, wb})
	attempted, fails, _, _, _ := both.totals()
	wa.printTraffic("untraced half")
	wb.printTraffic("traced half")
	fmt.Printf("end-to-end, untraced half: req_per_s=%.6g lat_p50_us=%.6g lat_p99_us=%.6g cpu_us_per_req=%.6g (n=%d)\n",
		ea.reqPerS, ea.p50, ea.p99, ea.cpuPerReq, ea.samples)
	fmt.Printf("end-to-end, traced half:   req_per_s=%.6g lat_p50_us=%.6g lat_p99_us=%.6g cpu_us_per_req=%.6g (n=%d)\n",
		eb.reqPerS, eb.p50, eb.p99, eb.cpuPerReq, eb.samples)
	fmt.Printf("spans: ring of %d records (%d overwritten) holds every span of the last %d of %d traced requests; tracez timestamps are float Unix seconds, resolved to about 0.24 us\n",
		st.spans, st.dropped, st.requests, eb.samples)

	vals := map[string]layerValue{}
	var outside, handlerDur []float64
	var rttSum, uncovered float64
	joined := 0
	for _, r := range wb.runs {
		for i, id := range r.ids {
			h, ok := handler[id]
			if !ok {
				continue
			}
			outside = append(outside, r.lat[i]-h)
			if c, ok := st.covered[id]; ok {
				rttSum += r.lat[i]
				uncovered += h - c
				joined++
			}
		}
	}
	for _, h := range handler {
		handlerDur = append(handlerDur, h)
	}
	vals["http.outside_us_p50"] = p50(outside)
	vals["serve.handler_us_p50"] = p50(handlerDur)
	vals["serve.handler_us_p99"] = p99(handlerDur)
	for name, span := range map[string]string{
		"serve.cache_us_p50":      "cache",
		"serve.admission_us_p50":  "admission",
		"serve.queue_wait_us_p50": "queue-wait",
		"serve.eval_us_p50":       "eval",
		"serve.encode_us_p50":     "encode",
		"workpool.wait_us_p50":    "workpool.wait",
		"workpool.service_us_p50": "workpool.service",
	} {
		vals[name] = p50(st.self[span])
	}

	tr := both.traffic()
	misses := both.counter("serve.cache.misses")
	points := both.counter("serve.cache.hits") + misses
	vals["serve.hit_ratio"] = layerValue{value: tr.hitShare, n: int(points)}
	vals["serve.points_per_job"] = layerValue{value: tr.pointsPerJob, n: int(both.counter("serve.batch.jobs"))}
	vals["serve.coalesced_per_miss"] = layerValue{value: tr.coalescedPerMiss, n: int(misses)}
	vals["serve.reject_frac"] = layerValue{value: tr.rejects, n: int(both.counter("serve.http.requests"))}

	ns, evaluated, total := coreEvalNs(sample)
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return result{}, fmt.Errorf("closed-form models returned a non-finite rate over the workload's points")
	}
	vals["core.eval_ns"] = layerValue{value: ns, n: evaluated,
		note: fmt.Sprintf("ns per point for the 4 default models; %.3g%% of lat_p50_us", 100*ns/1e3/eb.p50)}
	if orc != nil {
		vals["markov.solve_us_p50"] = p50(orc.markovSolve)
		vals["markov.solve_us_p99"] = p99(orc.markovSolve)
	}

	completedA := float64(wa.completed())
	vals["go.allocs_per_op"] = layerValue{value: ratio(float64(wa.mem.allocs), completedA), n: int(completedA), note: "per request, client and server together, untraced half"}
	vals["go.alloc_bytes_per_op"] = layerValue{value: ratio(float64(wa.mem.bytes), completedA), n: int(completedA), note: "per request, untraced half"}
	vals["go.gc_per_s"] = layerValue{value: ratio(float64(wa.mem.gcs), wa.wall), n: int(wa.mem.gcs), note: "untraced half"}
	vals["trace.overhead_frac"] = layerValue{value: ratio(eb.p50, ea.p50) - 1, n: eb.samples,
		note: "lat_p50_us traced half over untraced half, minus 1"}
	vals["layers.unattributed_frac"] = layerValue{value: ratio(uncovered, rttSum), n: joined,
		note: "handler time outside the cache/admission/queue-wait/eval/encode spans (decode, normalize, hash, mux, waiting on a coalesced flight) over round-trip time"}

	metrics := budget(cfg.workload, vals, map[string]float64{
		"lat_p50_us":     eb.p50,
		"lat_p99_us":     eb.p99,
		"cpu_us_per_req": eb.cpuPerReq,
		"failed_frac":    ratio(float64(fails.n), float64(attempted)),
	})
	fmt.Printf("  (setup_s of this run: %.6g s)\n", setup)
	fails.describe("timed window")
	return result{Correct: fails.n == 0, Attempted: attempted, Failed: fails.n, Metrics: metrics}, nil
}
