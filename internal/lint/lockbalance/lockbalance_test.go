package lockbalance_test

import (
	"path/filepath"
	"testing"

	"bytebrain/internal/lint/linttest"
	"bytebrain/internal/lint/lockbalance"
)

func TestGoldenFindings(t *testing.T) {
	for _, fixture := range []string{"lockfix", "logstore"} {
		t.Run(fixture, func(t *testing.T) {
			res := linttest.Run(t, lockbalance.Analyzer, filepath.Join("testdata", "src", fixture))
			if got := res.Suppressed["lockbalance"]; got != 1 {
				t.Errorf("suppressed count = %d, want 1", got)
			}
		})
	}
}
