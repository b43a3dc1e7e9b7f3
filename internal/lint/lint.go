// Package lint is bytebrain's project-specific static-analysis driver:
// a dependency-free (go/parser + go/types only) framework that runs the
// bbvet analyzer suite over the module and fails CI on findings.
//
// The analyzers encode invariants this codebase has paid for in review,
// one per historical bug class:
//
//	snapshot        — an atomic.Pointer is Load()ed at most once per
//	                  function and the result threaded through (the PR 2
//	                  double-Load race class)
//	unsafeescape    — unsafe.String/unsafe.Slice are allowlisted to the
//	                  audited netingest decode path (the PR 7 escaping-
//	                  view class)
//	metricshygiene  — obs metric names are bb_-prefixed constants,
//	                  latency histograms expose seconds, no name is
//	                  registered twice
//
// On top of those source-order checks sit four path-sensitive analyzers
// built on the internal/lint/cfg + internal/lint/dataflow engine:
//
//	lockbalance     — every Lock is released on every exit path, no
//	                  double-lock or unlock-without-lock, and no channel
//	                  op, net.Conn I/O or Store.Append* call while a
//	                  lock may be held
//	goroutineleak   — every go statement's unbounded loop observes a
//	                  termination signal (the PR 7 leaked-listener class)
//	errflow         — the error of a WAL write, fsync, rename or
//	                  remove on a write path is never discarded, and is
//	                  consumed on every path before overwrite or scope
//	                  exit (the PR 3 unchecked-quarantine class)
//	ackcommit       — a netingest OK ack is dominated by the store
//	                  commit it reports
//
// Deliberate exceptions are suppressed in source with
//
//	//bbvet:ignore <analyzer> <reason>
//
// on the finding's line or the line above. The driver counts every
// suppression and reports the total, so the exception budget stays
// visible; a directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one bbvet check. Run is invoked once per loaded package,
// in deterministic (sorted import path) order; cross-package state lives
// in Pass.Shared, which the driver threads through every Run of the same
// analyzer. Distinct analyzers may run concurrently (see
// RunAnalyzersParallel), so Run must not mutate anything reachable from
// the packages; Pass.Shared is private to one analyzer and needs no
// locking.
type Analyzer struct {
	// Name is the analyzer identifier used in findings and in
	// //bbvet:ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Packages restricts the analyzer to packages whose import path
	// contains any of these substrings; empty means every package.
	Packages []string
	// Run reports findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the analyzer covers the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Shared is per-analyzer state that survives across packages within
	// one driver run (e.g. the metric-name registry for duplicate
	// detection). Allocated by the driver before the first Run.
	Shared map[string]any

	findings *[]Finding
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Result is the outcome of a driver run.
type Result struct {
	// Findings are the unsuppressed findings, sorted by position.
	Findings []Finding
	// Suppressed counts valid //bbvet:ignore hits per analyzer.
	Suppressed map[string]int
	// BadDirectives are malformed suppressions (missing reason), which
	// are findings in their own right: an exception without a recorded
	// rationale defeats the audit trail.
	BadDirectives []Finding
	// Timings is per-analyzer wall time for the Run sweep (not counting
	// package loading).
	Timings map[string]time.Duration
}

// ignoreDirective is one parsed //bbvet:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
	reason   string
	pos      token.Position
	used     bool
}

const ignorePrefix = "//bbvet:ignore"

// collectDirectives parses every //bbvet:ignore comment in the package,
// keyed by file and line. A directive suppresses matching findings on
// its own line and on the line directly below (the "comment above the
// statement" idiom).
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int]*ignoreDirective {
	out := make(map[string]map[int]*ignoreDirective)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{
					analyzer: name,
					reason:   strings.TrimSpace(reason),
					pos:      pos,
				}
				byLine, ok := out[pos.Filename]
				if !ok {
					byLine = make(map[int]*ignoreDirective)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = d
			}
		}
	}
	return out
}

// RunAnalyzers executes the analyzer suite over the loaded packages,
// applies //bbvet:ignore suppressions and returns the surviving
// findings. enforceScope=false runs every analyzer on every package
// regardless of its Packages filter (the golden-test harness uses this).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, enforceScope bool) (*Result, error) {
	return RunAnalyzersParallel(pkgs, analyzers, enforceScope, 1)
}

// runAnalyzer sweeps one analyzer over every package in order, with its
// own Shared map and findings slice. The per-analyzer package order is
// the pkgs order (sorted import path), which is what the Shared contract
// promises.
func runAnalyzer(a *Analyzer, pkgs []*Package, enforceScope bool) ([]Finding, time.Duration, error) {
	start := time.Now()
	shared := make(map[string]any)
	var findings []Finding
	for _, pkg := range pkgs {
		if enforceScope && !a.AppliesTo(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Shared:   shared,
			findings: &findings,
		}
		if err := a.Run(pass); err != nil {
			return nil, 0, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	return findings, time.Since(start), nil
}

// RunAnalyzersParallel is RunAnalyzers with the analyzers fanned out
// across up to workers goroutines. Each analyzer still sees packages
// sequentially in sorted order (its Shared contract); parallelism is
// between analyzers, whose passes never share mutable state. Output is
// deterministic regardless of workers: findings are merged and sorted
// the same way as the sequential run.
func RunAnalyzersParallel(pkgs []*Package, analyzers []*Analyzer, enforceScope bool, workers int) (*Result, error) {
	if workers < 1 {
		workers = 1
	}
	type sweep struct {
		findings []Finding
		elapsed  time.Duration
		err      error
	}
	sweeps := make([]sweep, len(analyzers))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f, d, err := runAnalyzer(a, pkgs, enforceScope)
			sweeps[i] = sweep{f, d, err}
		}(i, a)
	}
	wg.Wait()

	res := &Result{Suppressed: make(map[string]int), Timings: make(map[string]time.Duration, len(analyzers))}
	var findings []Finding
	for i, a := range analyzers {
		if sweeps[i].err != nil {
			return nil, sweeps[i].err
		}
		findings = append(findings, sweeps[i].findings...)
		res.Timings[a.Name] = sweeps[i].elapsed
	}

	// Apply suppressions across the union of every package's directives
	// (findings always point into the package that produced them, so a
	// directive can only match its own file anyway).
	merged := make(map[string]map[int]*ignoreDirective)
	for _, pkg := range pkgs {
		for file, byLine := range collectDirectives(pkg.Fset, pkg.Files) {
			if merged[file] == nil {
				merged[file] = byLine
				continue
			}
			for line, d := range byLine {
				merged[file][line] = d
			}
		}
	}
	for _, f := range findings {
		if d := matchDirective(merged, f); d != nil {
			if d.reason == "" {
				if !d.used {
					d.used = true
					res.BadDirectives = append(res.BadDirectives, Finding{
						Analyzer: "bbvet",
						Pos:      d.pos,
						Message:  fmt.Sprintf("bbvet:ignore %s directive has no reason; suppressions must say why", d.analyzer),
					})
				}
				res.Findings = append(res.Findings, f)
				continue
			}
			d.used = true
			res.Suppressed[f.Analyzer]++
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	sortFindings(res.Findings)
	sortFindings(res.BadDirectives)
	return res, nil
}

// matchDirective finds a directive covering the finding: same line or
// the line above, analyzer name matching (or "all").
func matchDirective(m map[string]map[int]*ignoreDirective, f Finding) *ignoreDirective {
	byLine := m[f.Pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if d, ok := byLine[line]; ok && (d.analyzer == f.Analyzer || d.analyzer == "all") {
			return d
		}
	}
	return nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
