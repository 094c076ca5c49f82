package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pftk/internal/experiments"
	"pftk/internal/hosts"
	"pftk/internal/obs"
)

// calibrationPairs are the host pairs a regeneration calibrates: the
// Table II campaign's and the Fig. 7/8 pairs, each once.
func calibrationPairs() []hosts.Pair {
	seen := map[string]bool{}
	var out []hosts.Pair
	for _, set := range [][]hosts.Pair{hosts.TableII(), hosts.Fig7Pairs(), hosts.Fig8Pairs()} {
		for _, p := range set {
			if !seen[p.Name()] {
				seen[p.Name()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// calibrateAll is the regeneration's lazy set-up done up front: it drops
// the calibration cache and fits every pair again, on workers goroutines.
func calibrateAll(pairs []hosts.Pair, workers int) {
	hosts.ResetCalibrationCache()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(pairs)); i = next.Add(1) - 1 {
				hosts.CalibratedPair(pairs[i], hosts.CalibrateOptions{})
			}
		}()
	}
	wg.Wait()
}

// regenRun is one full regeneration.
type regenRun struct {
	wall, cpu float64
	steps     map[string]float64 // wall seconds per artifact, campaigns folded into table2
	digest    [32]byte
	records   []obs.RunRecord // per-trace metric records, when Options.Metrics is set
	mem       memDelta
}

// render writes every table, figure and note of the reports, the content
// cmd/experiments prints and exports.
func render(reports []*experiments.Report) ([32]byte, error) {
	var b bytes.Buffer
	for _, r := range reports {
		fmt.Fprintf(&b, "==== %s: %s ====\n", r.ID, r.Title)
		for _, t := range r.Tables {
			b.WriteString(t.ASCII())
			if err := t.WriteCSV(&b); err != nil {
				return [32]byte{}, fmt.Errorf("render %s: %w", r.ID, err)
			}
		}
		for _, f := range r.Figures {
			b.WriteString(f.Summary())
			if err := f.WriteCSV(&b); err != nil {
				return [32]byte{}, fmt.Errorf("render %s: %w", r.ID, err)
			}
		}
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return sha256.Sum256(b.Bytes()), nil
}

// regenerate runs experiments.RunAllTimed once. With observe, every
// simulated trace also exports its metric snapshot, which the traced run
// reads back.
func regenerate(opts experiments.Options, observe bool) (regenRun, error) {
	run := regenRun{steps: map[string]float64{}}
	var jsonl bytes.Buffer
	var mw *obs.JSONLWriter
	if observe {
		mw = obs.NewJSONLWriter(&jsonl)
		opts.Obs = true
		opts.Metrics = mw
	}
	m0 := readMem()
	u0 := readUsage()
	t := time.Now()
	reports := experiments.RunAllTimed(opts, func(r *experiments.Report, wall float64) { run.steps[r.ID] = wall })
	run.wall = since(t)
	run.cpu = readUsage().cpu - u0.cpu
	run.mem = memSince(m0)
	var err error
	if run.digest, err = render(reports); err != nil {
		return run, err
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			return run, fmt.Errorf("metrics export: %w", err)
		}
		sc := bufio.NewScanner(&jsonl)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			var rec obs.RunRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return run, fmt.Errorf("metrics record: %w", err)
			}
			run.records = append(run.records, rec)
		}
		if err := sc.Err(); err != nil {
			return run, fmt.Errorf("metrics records: %w", err)
		}
	}
	return run, nil
}

// regenLoop starts regenerations until d has elapsed (at least one),
// checking each rendered result against ref, which the first
// regeneration of the run sets.
func regenLoop(opts experiments.Options, d time.Duration, observe bool, ref *[32]byte, fails *errCount) ([]regenRun, error) {
	var runs []regenRun
	t := time.Now()
	for len(runs) == 0 || time.Since(t) < d {
		run, err := regenerate(opts, observe)
		if err != nil {
			return nil, err
		}
		switch {
		case *ref == [32]byte{}:
			*ref = run.digest
		case run.digest != *ref:
			fails.add(fmt.Errorf("regeneration %d: rendered reports differ from the run's first (sha256 %x, want %x)", len(runs), run.digest[:8], ref[:8]))
		}
		fmt.Printf("regeneration: %.3f s wall, %.3f s cpu, reports sha256 %x\n", run.wall, run.cpu, run.digest[:8])
		runs = append(runs, run)
	}
	return runs, nil
}

// regenE2E summarizes regenerations as the end-to-end metrics: a
// regeneration is the workload's request.
type regenE2E struct {
	perS, p50, p99, cpuPerOp float64
}

func summarize(runs []regenRun) regenE2E {
	var walls []float64
	cpu := 0.0
	for _, r := range runs {
		walls = append(walls, r.wall)
		cpu += r.cpu
	}
	n := float64(len(runs))
	return regenE2E{
		perS:     n / sum(walls),
		p50:      quantile(walls, 0.5) * 1e6,
		p99:      quantile(walls, 0.99) * 1e6,
		cpuPerOp: cpu / n * 1e6,
	}
}

// runRegen runs the regen workload.
func runRegen(cfg runConfig) (result, error) {
	workers := runtime.GOMAXPROCS(0)
	pairs := calibrationPairs()
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		calibrateAll(pairs, workers)
		setups = append(setups, since(t))
	}
	fmt.Printf("setup: calibrated %d host pairs on %d workers, %d times\n", len(pairs), workers, setupReps)

	opts := experiments.DefaultOptions()
	opts.Salt = uint64(cfg.seed)
	var ref [32]byte
	var fails errCount
	if !cfg.traced {
		runs, err := regenLoop(opts, time.Duration(cfg.seconds)*time.Second, false, &ref, &fails)
		if err != nil {
			return result{}, err
		}
		e := summarize(runs)
		printSteps(runs)
		fmt.Printf("regen_s=%.6g s (median) regen_cpu_s=%.6g s (mean) over %d regenerations\n", e.p50/1e6, e.cpuPerOp/1e6, len(runs))
		fmt.Println("end-to-end (a regeneration is one request):")
		rep := newReport()
		rep.set("setup_s", median(setups), "s", setupReps, "median of calibrating every host pair")
		rep.set("req_per_s", e.perS, "1/s", len(runs), "regenerations per second")
		rep.set("lat_p50_us", e.p50, "us", len(runs), "regen_s: median wall time of a regeneration")
		rep.set("lat_p99_us", e.p99, "us", len(runs), "slowest regeneration (nearest-rank p99 of the sample)")
		rep.set("cpu_us_per_req", e.cpuPerOp, "us", len(runs), "regen_cpu_s: process CPU per regeneration")
		rep.set("peak_rss_mb", readUsage().peakRSSMB, "MB", -1, "")
		fails.describe("regenerations")
		return result{Correct: fails.n == 0, Attempted: int64(len(runs)), Failed: fails.n, Metrics: rep.metrics}, nil
	}

	half := time.Duration(cfg.seconds) * time.Second / 2
	ra, err := regenLoop(opts, half, false, &ref, &fails)
	if err != nil {
		return result{}, err
	}
	rb, err := regenLoop(opts, half, true, &ref, &fails)
	if err != nil {
		return result{}, err
	}
	ea, eb := summarize(ra), summarize(rb)
	printSteps(rb)
	fmt.Printf("end-to-end, untraced half: regen_s=%.6g (n=%d); traced half (Options.Obs and a metrics writer on): regen_s=%.6g (n=%d)\n",
		ea.p50/1e6, len(ra), eb.p50/1e6, len(rb))

	vals := map[string]layerValue{}
	named := map[string]string{
		"experiments.campaign_s":      "table2",
		"experiments.multiflow_s":     "multiflow",
		"experiments.fairness_s":      "fairness",
		"experiments.nonstationary_s": "nonstationary",
		"experiments.lossmodels_s":    "lossmodels",
	}
	var other, events, drops, timeouts, unattributed []float64
	for name, id := range named {
		var xs []float64
		for _, r := range rb {
			xs = append(xs, r.steps[id])
		}
		vals[name] = p50(xs)
	}
	for _, r := range rb {
		all, known := 0.0, 0.0
		for _, w := range r.steps {
			all += w
		}
		for _, id := range named {
			known += r.steps[id]
		}
		other = append(other, all-known)
		unattributed = append(unattributed, 1-all/r.wall)
		var ev, dr, to float64
		for _, rec := range r.records {
			if rec.Experiment == "hour" || rec.Experiment == "short" {
				ev += float64(rec.Metrics.Counter("sim.events"))
			}
			for name, v := range rec.Metrics.Counters {
				if strings.HasPrefix(name, "netem.") && strings.Contains(name, ".drops.") {
					dr += float64(v)
				}
			}
			to += float64(rec.Metrics.Counter("reno.timeouts.fired"))
		}
		events = append(events, ev)
		drops = append(drops, dr)
		timeouts = append(timeouts, to)
	}
	vals["experiments.other_s"] = p50(other)
	vals["sim.events"] = layerValue{value: quantile(events, 0.5), n: len(events), note: "engine events of the hour and short campaigns per regeneration"}
	vals["sim.ns_per_event"] = layerValue{value: ratio(vals["experiments.campaign_s"].value*1e9, vals["sim.events"].value), n: len(events),
		note: fmt.Sprintf("campaign wall time over its events, %d workers", workers)}
	vals["netem.drops"] = layerValue{value: quantile(drops, 0.5), n: len(drops), note: spreadNote(drops)}
	vals["reno.timeouts"] = layerValue{value: quantile(timeouts, 0.5), n: len(timeouts), note: spreadNote(timeouts)}

	var mem memDelta
	wallA := 0.0
	for _, r := range ra {
		mem.allocs += r.mem.allocs
		mem.bytes += r.mem.bytes
		mem.gcs += r.mem.gcs
		wallA += r.wall
	}
	n := float64(len(ra))
	vals["go.allocs_per_op"] = layerValue{value: float64(mem.allocs) / n, n: len(ra), note: "per regeneration, untraced half"}
	vals["go.alloc_bytes_per_op"] = layerValue{value: float64(mem.bytes) / n, n: len(ra), note: "per regeneration, untraced half"}
	vals["go.gc_per_s"] = layerValue{value: ratio(float64(mem.gcs), wallA), n: int(mem.gcs), note: "untraced half"}
	vals["trace.overhead_frac"] = layerValue{value: ratio(eb.p50, ea.p50) - 1, n: len(rb), note: "regen_s traced half over untraced half, minus 1"}
	vals["layers.unattributed_frac"] = layerValue{value: quantile(unattributed, 0.5), n: len(rb), note: "regeneration wall time outside every artifact's callback time"}

	metrics := budget(cfg.workload, vals, map[string]float64{
		"regen_s":        eb.p50 / 1e6,
		"cpu_us_per_req": eb.cpuPerOp,
		"lat_p99_us":     eb.p99,
	})
	fmt.Printf("  (setup_s of this run: %.6g s)\n", median(setups))
	fails.describe("regenerations")
	return result{Correct: fails.n == 0, Attempted: int64(len(ra) + len(rb)), Failed: fails.n, Metrics: metrics}, nil
}

// spreadNote says whether a per-regeneration count repeated exactly.
func spreadNote(xs []float64) string {
	lo, hi := quantile(xs, 0), quantile(xs, 1)
	if hi-lo > 0 {
		return fmt.Sprintf("CHANGED between regenerations of one seed: %.0f..%.0f", lo, hi)
	}
	return "identical in every regeneration of this seed"
}

// printSteps prints the median wall time of each artifact.
func printSteps(runs []regenRun) {
	var ids []string
	for id := range runs[0].steps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("artifact wall seconds (median):")
	for _, id := range ids {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.steps[id])
		}
		fmt.Fprintf(&b, " %s=%.3f", id, quantile(xs, 0.5))
	}
	fmt.Println(b.String())
}
