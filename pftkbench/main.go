// Command pftkbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, in one process, and prints every metric by
// name with its unit, then a one-line JSON result as the last line of
// standard output:
//
//	predict-unique  pftkd /v1/predict over loopback; no key ever repeats
//	predict-zipf    pftkd /v1/predict over loopback; Zipf keys, Markov and curves
//	regen           a full regeneration of every table and figure
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs a
// traced measurement instead and reports the per-layer metrics, each next
// to the end-to-end metric it should move. Every input is drawn from
// -seed, and every output is checked. Run it through run.sh from the
// repository root:
//
//	bash pftkbench/run.sh --workload predict-zipf --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (result, error){
	"predict-unique": runPredict,
	"predict-zipf":   runPredict,
	"regen":          runRegen,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "pftkbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("pftkbench", flag.ContinueOnError)
	var (
		workload = fset.String("workload", "", "predict-unique, predict-zipf or regen")
		seed     = fset.Int64("seed", 1, "seed of every generated input")
		seconds  = fset.Int("seconds", 20, "length of the timed window in seconds")
		trace    = fset.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want predict-unique, predict-zipf or regen)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	if err := printProvenance(cfg); err != nil {
		return err
	}
	res, err := runner(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("attempted=%d failed=%d failed_frac=%.6g correct=%t\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// workloadParams describes a workload's fixed parameters for the
// provenance line.
func workloadParams(name string) string {
	switch name {
	case "predict-unique":
		return fmt.Sprintf("closed loop, %d connections; single-point /v1/predict, default models; p log-uniform in [%g, %g) over %d slots, no key repeats; wm %d..%d",
			nClients, pLoUnique, pHiUnique, uniqueSlots, wmLo, wmHi)
	case "predict-zipf":
		return fmt.Sprintf("closed loop, %d connections; Zipf(s=%g) over %d keys (%d paths x %d loss rates); 1 key in %d asks markov; 1 request in %d is a %d-point curve; wm %d..%d",
			nClients, zipfS, zipfKeys, zipfPaths, curvePoints, markovEvery, curveEvery, curvePoints, wmLo, wmHi)
	default:
		return fmt.Sprintf("experiments.RunAllTimed(DefaultOptions with Salt = seed), Workers = GOMAXPROCS = %d", runtime.GOMAXPROCS(0))
	}
}

// serverParams is how the predict workloads build the server: the way
// cmd/pftkd builds it with default flags.
const serverParams = "serve.Config as pftkd defaults: registry and tracer on, cache 4096, queue 256, batchwait 0, workers GOMAXPROCS, one listener"

// printProvenance prints the machine, toolchain, source and workload of
// this run.
func printProvenance(cfg runConfig) error {
	digest, files, err := sourceDigest(".")
	if err != nil {
		return err
	}
	fmt.Printf("provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s (%d files)\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), digest, files)
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Printf("params: %s\n", workloadParams(cfg.workload))
	if cfg.workload != "regen" {
		fmt.Printf("server: %s\n", serverParams)
	}
	return nil
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one; a source checkout without history reports "unknown", and the
// source digest identifies the code instead.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod file under root, in
// lexical path order, skipping hidden directories such as the build
// directory.
func sourceDigest(root string) (string, int, error) {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		_, _ = h.Write(data)
		n++
		return nil
	})
	if err != nil {
		return "", 0, fmt.Errorf("source digest: %w", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], n, nil
}

// usage is the process's resource use so far.
type usage struct {
	cpu       float64 // user + system seconds
	peakRSSMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), peakRSSMB: float64(ru.Maxrss) / 1024}
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocs, bytes, gcs uint64
}

func memSince(before runtime.MemStats) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocs: now.Mallocs - before.Mallocs,
		bytes:  now.TotalAlloc - before.TotalAlloc,
		gcs:    uint64(now.NumGC - before.NumGC),
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// sum adds xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report collects the metrics of one run and prints each as it is set.
type report struct {
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric and prints it with its sample count (n < 0 means
// the metric is not a sample statistic).
func (r *report) set(name string, value float64, unit string, n int, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	line := fmt.Sprintf("  %-28s %14.6g %-6s", name, value, unit)
	if n >= 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	if note != "" {
		line += "  " + note
	}
	fmt.Println(line)
}

// errCount is a count of failed operations with the first reason kept
// for the report.
type errCount struct {
	n     int64
	first error
}

func (e *errCount) add(err error) {
	if e.n == 0 {
		e.first = err
	}
	e.n++
}

func (e *errCount) merge(o errCount) {
	if e.n == 0 {
		e.first = o.first
	}
	e.n += o.n
}

// describe prints the failure count and first reason, if any.
func (e errCount) describe(what string) {
	if e.n > 0 {
		fmt.Printf("%s: %d failed; first: %v\n", what, e.n, e.first)
	}
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
