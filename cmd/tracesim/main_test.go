package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pftk/internal/trace"
)

func TestSummaryOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dur", "30", "-loss", "0.02"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"send rate", "throughput", "loss indication rate", "trace records"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if strings.Contains(s, "wrote") {
		t.Error("should not write a file without -o")
	}
}

func TestWritesBinaryTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pftk")
	var out bytes.Buffer
	if err := run([]string{"-dur", "30", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(tr) == 0 {
		t.Error("empty trace written")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("invalid trace: %v", err)
	}
}

func TestWritesJSONLTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-dur", "20", "-format", "jsonl", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.DecodeJSONL(f)
	if err != nil || len(tr) == 0 {
		t.Fatalf("jsonl decode: %v (%d records)", err, len(tr))
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.x")
	var out bytes.Buffer
	if err := run([]string{"-dur", "5", "-format", "yaml", "-o", path}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestDeterministicSeed(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-dur", "30", "-seed", "7"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dur", "30", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different output")
	}
}

// TestVersionFlag checks -version prints the build identity and exits
// without simulating.
func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tracesim ") {
		t.Errorf("version output malformed: %q", out.String())
	}
}

// TestDebugAddr starts the diagnostics endpoint on an ephemeral port.
func TestDebugAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dur", "5", "-debugaddr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
}

// TestFlagValidation rejects non-positive durations and out-of-domain
// rates instead of silently substituting defaults.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero duration", []string{"-dur", "0"}, "-dur must be"},
		{"negative duration", []string{"-dur", "-10"}, "-dur must be"},
		{"zero rtt", []string{"-rtt", "0"}, "-rtt must be"},
		{"negative loss", []string{"-loss", "-0.1"}, "must be in [0, 1]"},
		{"loss above 1", []string{"-loss", "1.5"}, "must be in [0, 1]"},
		{"negative burst", []string{"-burst", "-1"}, "-burst must be"},
		{"zero minrto", []string{"-minrto", "0"}, "-minrto must be"},
		{"zero wm", []string{"-wm", "0"}, "-wm must be"},
		{"unknown variant", []string{"-variant", "vegas"}, "valid: reno, tahoe, linux, irix, newreno"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q missing %q", tc.args, err, tc.want)
			}
			if code := exitCode(err); code != 2 {
				t.Errorf("args %v: exit status %d, want 2", tc.args, code)
			}
			if out.Len() > 0 {
				t.Errorf("args %v: partial output before validation error:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestScenarioFlag drives a scheduled step-loss run through the CLI:
// the scenario file is parsed, the per-segment attribution is printed,
// and a lossier second half means more retransmissions than the
// scenario-free twin.
func TestScenarioFlag(t *testing.T) {
	scn := filepath.Join(t.TempDir(), "step.json")
	doc := `{"name":"step","phases":[{"at":50,"loss":{"rate":0.2}}]}`
	if err := os.WriteFile(scn, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var with, without bytes.Buffer
	args := []string{"-dur", "100", "-loss", "0.01", "-seed", "3"}
	if err := run(append(args, "-scenario", scn), &with); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &without); err != nil {
		t.Fatal(err)
	}
	s := with.String()
	if !strings.Contains(s, "scenario base [0, 50)") || !strings.Contains(s, "scenario phase 0 [50, 100)") {
		t.Errorf("per-segment attribution missing from output:\n%s", s)
	}
	if strings.Contains(without.String(), "scenario") {
		t.Errorf("scenario-free run printed segment stats:\n%s", without.String())
	}
}

// TestScenarioFlagRejectsBadFile surfaces parse and validation errors
// with the flag's name attached.
func TestScenarioFlagRejectsBadFile(t *testing.T) {
	scn := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(scn, []byte(`{"phases":[{"at":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-dur", "5", "-scenario", scn}, &out)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Errorf("bad scenario file not rejected with flag context: %v", err)
	}
	err = run([]string{"-dur", "5", "-scenario", filepath.Join(t.TempDir(), "missing.json")}, &out)
	if err == nil {
		t.Error("missing scenario file accepted")
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files covering the simulation.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-dur", "60", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	if err := run([]string{"-dur", "5", "-cpuprofile", filepath.Join(dir, "no", "cpu")}, &out); err == nil {
		t.Error("uncreatable -cpuprofile path accepted")
	}
}
