package suite_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"bytebrain/internal/lint"
	"bytebrain/internal/lint/suite"
)

func TestSuiteSize(t *testing.T) {
	if n := len(suite.Analyzers()); n < 7 {
		t.Fatalf("suite has %d analyzers, the bbvet contract is at least 7", n)
	}
}

// TestTreeIsClean runs the full bbvet suite over the module — the same
// check CI's bbvet step performs — so a plain `go test ./...` also
// fails on a new invariant violation.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis; the CI bbvet step covers short runs")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	modroot := filepath.Join(filepath.Dir(thisFile), "..", "..", "..")
	loader, err := lint.NewLoader(modroot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.RunAnalyzersParallel(pkgs, suite.Analyzers(), true, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, f := range res.BadDirectives {
		t.Errorf("malformed suppression: %s", f)
	}

	// The parallel sweep must be a pure speedup: same findings, same
	// suppression counts as the sequential driver.
	seq, err := lint.RunAnalyzers(pkgs, suite.Analyzers(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Findings) != len(res.Findings) {
		t.Errorf("sequential run found %d findings, parallel %d", len(seq.Findings), len(res.Findings))
	}
	for i := range seq.Findings {
		if i < len(res.Findings) && seq.Findings[i] != res.Findings[i] {
			t.Errorf("finding %d differs: sequential %s, parallel %s", i, seq.Findings[i], res.Findings[i])
		}
	}
	for name, n := range seq.Suppressed {
		if res.Suppressed[name] != n {
			t.Errorf("suppressed[%s]: sequential %d, parallel %d", name, n, res.Suppressed[name])
		}
	}
}
