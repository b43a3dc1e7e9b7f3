package errflow_test

import (
	"path/filepath"
	"testing"

	"bytebrain/internal/lint/errflow"
	"bytebrain/internal/lint/linttest"
)

func TestGoldenFindings(t *testing.T) {
	for _, fx := range []struct {
		name       string
		suppressed int
	}{{"errfix", 0}, {"logstore", 1}} {
		t.Run(fx.name, func(t *testing.T) {
			res := linttest.Run(t, errflow.Analyzer, filepath.Join("testdata", "src", fx.name))
			if got := res.Suppressed["errflow"]; got != fx.suppressed {
				t.Errorf("suppressed count = %d, want %d", got, fx.suppressed)
			}
		})
	}
}

func TestScope(t *testing.T) {
	a := errflow.Analyzer
	for path, want := range map[string]bool{
		"bytebrain/internal/logstore":  true,
		"bytebrain/internal/segment":   true,
		"bytebrain/internal/netingest": true,
		"bytebrain/internal/fsx":       true,
		"bytebrain/internal/service":   false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}
