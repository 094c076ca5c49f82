package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// moduleLoader is the one Loader over this repository that the
// whole-module tests share. A Loader memoizes every package it
// type-checks, so the module is parsed and type-checked once per test
// binary instead of once per test.
var moduleLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

// selfLoader returns the shared module loader, failing the test if the
// module cannot be found.
func selfLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := moduleLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// TestLintSelf runs the full analyzer suite over this repository itself,
// so `go test ./...` fails the moment a violation lands anywhere in the
// module. This is the always-on equivalent of `go run ./cmd/pftklint ./...`.
func TestLintSelf(t *testing.T) {
	loader := selfLoader(t)
	if loader.ModulePath() != "pftk" {
		t.Fatalf("module path = %q, want pftk (loader rooted in the wrong module?)", loader.ModulePath())
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded; the walk is missing most of the module", len(pkgs))
	}
	for _, d := range Run(pkgs, Analyzers) {
		t.Errorf("%s", d)
	}
}

// TestDriverSelfCheck is the CI contract in test form: the Driver over
// the whole module, diffed against the committed baseline, must be
// clean — zero load errors, zero unbaselined findings, zero stale
// baseline entries. It is what `pftklint -json -check ./...` asserts.
func TestDriverSelfCheck(t *testing.T) {
	loader := selfLoader(t)
	report, err := (&Driver{Loader: loader}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range report.LoadErrors {
		t.Errorf("load error: %s: %s", le.Dir, le.Error)
	}
	bl, err := ReadBaseline(filepath.Join(loader.Root(), ".pftklint-baseline.json"))
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	news, stale := bl.Diff(report)
	for _, f := range news {
		t.Errorf("unbaselined finding: %s", f)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry: %s: %s: %s", e.File, e.Analyzer, e.Message)
	}
}
