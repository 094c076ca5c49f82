package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a small Go module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const badSource = `package bad

func eq(a, b float64) bool { return a == b }
`

const cleanSource = `package clean

func eq(a, b float64) bool { return a == 0 && b == 0 }
`

func TestRunFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go":     badSource,
		"clean/clean.go": cleanSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (findings present)", code)
	}
	got := out.String()
	if !strings.Contains(got, "bad.go:3") || !strings.Contains(got, "floatcmp") {
		t.Errorf("output missing the expected finding:\n%s", got)
	}
	if strings.Contains(got, "clean.go") {
		t.Errorf("clean package must not be flagged:\n%s", got)
	}
}

func TestRunClean(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean/clean.go": cleanSource})
	var out strings.Builder
	code, err := run([]string{"-C", dir}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0; output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run must print nothing, got:\n%s", out.String())
	}
}

func TestRunOnlySubset(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	// The only violation is floatcmp; restricting to errdrop must be clean.
	var out strings.Builder
	code, err := run([]string{"-C", dir, "-only", "errdrop", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("-only errdrop exit code = %d, want 0; output:\n%s", code, out.String())
	}
	if _, err := run([]string{"-C", dir, "-only", "nosuch"}, &out); err == nil {
		t.Error("-only with an unknown analyzer must error")
	}
}

func TestRunSingleDirAndList(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go":     badSource,
		"clean/clean.go": cleanSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./clean"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("linting only ./clean: exit code = %d, want 0; output:\n%s", code, out.String())
	}

	out.Reset()
	code, err = run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-list: code=%d err=%v", code, err)
	}
	for _, name := range []string{
		"floatcmp", "errdrop", "panicstyle", "ctorparams",
		"hotalloc", "determinism", "guardedby", "directive", "jsontag", "ignoreaudit",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

const brokenSource = `package broken

func oops( {
`

func TestRunLoadErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"broken/broken.go": brokenSource,
		"bad/bad.go":       badSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Exit code 2: a broken package must dominate findings — never be
	// silently skipped.
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (load errors dominate)", code)
	}
	got := out.String()
	if !strings.Contains(got, "load error: broken") {
		t.Errorf("output must name the broken package:\n%s", got)
	}
	// The loadable package's finding still surfaces.
	if !strings.Contains(got, "bad.go:3") || !strings.Contains(got, "floatcmp") {
		t.Errorf("findings in loadable packages must still be reported:\n%s", got)
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "-json", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	var doc struct {
		Module   string `json:"module"`
		Packages int    `json:"packages"`
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Module != "tmpmod" || doc.Packages != 1 {
		t.Errorf("module=%q packages=%d, want tmpmod/1", doc.Module, doc.Packages)
	}
	if len(doc.Findings) != 1 || doc.Findings[0].Analyzer != "floatcmp" ||
		doc.Findings[0].File != "bad/bad.go" || doc.Findings[0].Line != 3 {
		t.Errorf("unexpected findings: %+v", doc.Findings)
	}
}

func TestRunBaselineWorkflow(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	var out strings.Builder

	// -check without a baseline file is an error, not a silent pass.
	if _, err := run([]string{"-C", dir, "-check", "./..."}, &out); err == nil {
		t.Error("-check with no baseline file must error")
	}

	// Accept the current findings.
	out.Reset()
	code, err := run([]string{"-C", dir, "-write-baseline", "./..."}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-write-baseline: code=%d err=%v\n%s", code, err, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, ".pftklint-baseline.json")); err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}

	// Baselined findings no longer fail -check.
	out.Reset()
	code, err = run([]string{"-C", dir, "-check", "./..."}, &out)
	if err != nil {
		t.Fatalf("run -check: %v", err)
	}
	if code != 0 {
		t.Errorf("-check with all findings baselined: code = %d, want 0\n%s", code, out.String())
	}

	// A new finding fails -check and is labelled as new.
	if err := os.WriteFile(filepath.Join(dir, "bad", "more.go"), []byte(`package bad

func neq(a, b float64) bool { return a != b }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"-C", dir, "-check", "./..."}, &out)
	if err != nil {
		t.Fatalf("run -check: %v", err)
	}
	if code != 1 {
		t.Errorf("-check with a new finding: code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "new finding (not in baseline)") {
		t.Errorf("new finding must be labelled:\n%s", out.String())
	}

	// Fixing the original baselined finding makes its entry stale, which
	// also fails -check (rot must be pruned, not accumulated).
	if err := os.WriteFile(filepath.Join(dir, "bad", "bad.go"), []byte(cleanSource), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "bad", "more.go")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"-C", dir, "-check", "./..."}, &out)
	if err != nil {
		t.Fatalf("run -check: %v", err)
	}
	if code != 1 {
		t.Errorf("-check with a stale baseline entry: code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "stale baseline entry") {
		t.Errorf("stale entry must be labelled:\n%s", out.String())
	}
}

func TestRunJSONCheck(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "-write-baseline", "./..."}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-write-baseline: code=%d err=%v", code, err)
	}

	// -json -check must emit ONE valid JSON document carrying the diff.
	out.Reset()
	code, err = run([]string{"-C", dir, "-json", "-check", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("baselined -json -check: code = %d, want 0", code)
	}
	var doc struct {
		Findings      []any `json:"findings"`
		NewFindings   []any `json:"new_findings"`
		StaleBaseline []any `json:"stale_baseline"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json -check output is not one valid JSON document: %v\n%s", err, out.String())
	}
	if len(doc.Findings) != 1 {
		t.Errorf("report must still carry the baselined finding, got %d", len(doc.Findings))
	}
	if doc.NewFindings == nil || doc.StaleBaseline == nil {
		t.Error("new_findings and stale_baseline must be [] (never null) when clean")
	}
	if len(doc.NewFindings) != 0 || len(doc.StaleBaseline) != 0 {
		t.Errorf("clean check: new=%v stale=%v", doc.NewFindings, doc.StaleBaseline)
	}
}

func TestWriteBaselineRefusesPartialAnalysis(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"broken/broken.go": brokenSource,
		"bad/bad.go":       badSource,
	})
	var out strings.Builder
	if _, err := run([]string{"-C", dir, "-write-baseline", "./..."}, &out); err == nil {
		t.Error("-write-baseline over a module with load errors must refuse")
	}
	if _, err := os.Stat(filepath.Join(dir, ".pftklint-baseline.json")); !os.IsNotExist(err) {
		t.Error("no baseline file may be written from a partial analysis")
	}
}
