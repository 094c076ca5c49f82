// Command tracesim runs one simulated TCP Reno bulk transfer over an
// emulated lossy path and writes the sender-side trace — the substitute
// for running tcpdump next to a real sender.
//
// Example:
//
//	tracesim -rtt 0.2 -loss 0.02 -burst 0.3 -wm 12 -dur 3600 -o trace.pftk
//	tracesim -rtt 0.1 -loss 0.05 -format jsonl -o trace.jsonl
//	tracesim -loss 0.01 -dur 600 -scenario examples/scenarios/step-loss.json -o step.pftk
//
// Exit status: 0 on success, 2 on a bad command line (an unknown flag,
// an out-of-range value or an unknown -variant), 1 on any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pftk"
	"pftk/internal/cli"
	"pftk/internal/obs"
	"pftk/internal/reno"
	"pftk/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a bad command line.
type usageError struct{ error }

// exitCode maps run's error to the process exit status: 2 for a bad
// command line, as the flag package uses, 1 otherwise.
func exitCode(err error) int {
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// run executes the tool against args, writing human output to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tracesim", flag.ContinueOnError)
	var (
		rtt     = fs.Float64("rtt", 0.2, "path round trip time in seconds")
		loss    = fs.Float64("loss", 0.02, "loss-burst start probability per packet")
		burst   = fs.Float64("burst", 0, "loss outage duration in seconds (0 = isolated losses)")
		wm      = fs.Int("wm", 16, "receiver advertised window in packets")
		minRTO  = fs.Float64("minrto", 1.0, "RTO floor in seconds (shapes T0)")
		dur     = fs.Float64("dur", 100, "transfer duration in simulated seconds")
		seed    = fs.Uint64("seed", 1, "random seed")
		variant = fs.String("variant", "reno", "sender TCP flavor: reno, tahoe, linux, irix, newreno")
		scnFile = fs.String("scenario", "", "JSON scenario file scheduling path changes and faults over the run")
		out     = fs.String("o", "", "output trace file (default stdout summary only)")
		format  = fs.String("format", "binary", "trace format: binary, jsonl or tcpdump")
		flight  = fs.Int("flight", 0, "attach a flight recorder retaining the last N engine events, dumped to stderr if the run panics (0 = off)")
		debug   = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. :0) while running")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a heap (allocs) profile to this file after the run")
		version = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *version {
		w := cli.NewWriter(stdout)
		w.Printf("tracesim %s\n", obs.BuildVersion())
		return w.Err()
	}
	switch {
	case *dur <= 0:
		return usageError{fmt.Errorf("-dur must be a positive duration in simulated seconds, got %v", *dur)}
	case *rtt <= 0:
		return usageError{fmt.Errorf("-rtt must be positive seconds, got %v", *rtt)}
	case *loss < 0 || *loss > 1:
		return usageError{fmt.Errorf("-loss is a probability and must be in [0, 1], got %v", *loss)}
	case *burst < 0:
		return usageError{fmt.Errorf("-burst must be a non-negative duration in seconds, got %v", *burst)}
	case *minRTO <= 0:
		return usageError{fmt.Errorf("-minrto must be positive seconds, got %v", *minRTO)}
	case *wm < 1:
		return usageError{fmt.Errorf("-wm must be at least 1 packet, got %d", *wm)}
	}
	if _, err := reno.ParseVariant(*variant); err != nil {
		return usageError{fmt.Errorf("-variant: %w", err)}
	}
	if *debug != "" {
		addr, err := obs.ServeDebug(*debug, nil)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/\n", addr)
	}

	stopProf, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	var sc *pftk.Scenario
	if *scnFile != "" {
		var err error
		if sc, err = pftk.ParseScenarioFile(*scnFile); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
	}

	opts := []pftk.SimOption{
		pftk.WithPath(*rtt),
		pftk.WithBurstLoss(*loss, *burst),
		pftk.WithWindow(*wm),
		pftk.WithMinRTO(*minRTO),
		pftk.WithDuration(*dur),
		pftk.WithSeed(*seed),
		pftk.WithOS(*variant),
		pftk.WithScenario(sc),
	}
	var phases []pftk.PhaseStat
	opts = append(opts, pftk.WithPhaseStats(&phases))
	if *flight > 0 {
		// The engine black box: on a panic, dump the last engine
		// operations before re-raising, then crash as before.
		rec := pftk.NewFlightRecorder(*flight)
		opts = append(opts, pftk.WithFlightRecorder(rec))
		defer func() {
			if p := recover(); p != nil {
				_, _ = fmt.Fprint(os.Stderr, rec.String())
				panic(p)
			}
		}()
	}
	res := pftk.Sim(opts...)

	w := cli.NewWriter(stdout)
	w.Printf("simulated %.0f s: %s\n", *dur, res)
	w.Printf("  send rate  %.2f pkts/s, throughput %.2f pkts/s\n", res.SendRate(), res.Throughput())
	w.Printf("  loss indication rate %.4f\n", res.LossIndicationRate())
	w.Printf("  trace records: %d\n", len(res.Trace))
	for _, ps := range phases {
		w.Printf("  scenario %s\n", ps)
	}

	if *out == "" {
		return w.Err()
	}
	if err := writeTrace(*out, *format, res.Trace); err != nil {
		return err
	}
	w.Printf("wrote %s (%s)\n", *out, *format)
	return w.Err()
}

// writeTrace encodes the trace to path; a failed Close (buffered data
// that never hit the disk) is reported like any other write error.
func writeTrace(path, format string, tr trace.Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer cli.CloseWith(&err, f)
	switch format {
	case "binary":
		return trace.Encode(f, tr)
	case "jsonl":
		return trace.EncodeJSONL(f, tr)
	case "tcpdump":
		return trace.EncodeTcpdump(f, tr)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
