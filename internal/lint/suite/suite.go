// Package suite assembles the full bbvet analyzer set. It exists as
// its own package (rather than a function in internal/lint) so the
// driver framework stays import-cycle-free of the analyzers and so the
// self-check test can run exactly what cmd/bbvet runs.
package suite

import (
	"bytebrain/internal/lint"
	"bytebrain/internal/lint/ackcommit"
	"bytebrain/internal/lint/errflow"
	"bytebrain/internal/lint/goroutineleak"
	"bytebrain/internal/lint/lockbalance"
	"bytebrain/internal/lint/metricshygiene"
	"bytebrain/internal/lint/snapshot"
	"bytebrain/internal/lint/unsafeescape"
)

// Analyzers returns the bbvet suite in reporting order: three
// source-order checkers, then the four CFG/dataflow analyzers built on
// internal/lint/cfg.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		snapshot.Analyzer,
		unsafeescape.Analyzer,
		metricshygiene.Analyzer,
		lockbalance.Analyzer,
		goroutineleak.Analyzer,
		errflow.Analyzer,
		ackcommit.Analyzer,
	}
}
