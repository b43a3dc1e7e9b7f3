package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// runRecord is one invocation's result as stored in a run-set file.
type runRecord struct {
	Set       string             `json:"set,omitempty"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

// runSet is a run-set file: where the runs were made, and the runs.
type runSet struct {
	Env  map[string]string `json:"env"`
	Runs []runRecord       `json:"runs"`
}

// environment describes the box and the code the runs were made on.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			env["commit"] += "+uncommitted"
		}
	}
	return env
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one result to the run-set file at path, creating it.
func appendRun(path string, o options, res *result) error {
	rs, err := readRunSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		rs, err = &runSet{Env: environment()}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, runRecord{
		Set: o.set, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Values: res.all,
	})
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is the
// rule the repeatability criterion is stated in. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// worsening is how much worse b is than a as a share of a, positive when
// worse, given which direction is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// verdict applies one metric's bound to two sets of values. A spread wider
// than the bound in either set makes the comparison unresolved: the runs
// cannot tell a regression of that size from noise.
func verdict(a, b []float64, def metricDef) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if def.Bound == 0 {
		return "-"
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > def.Bound {
			return "unresolved"
		}
	}
	if worsening(median(a), median(b), def.Better) > def.Bound {
		return "REGRESSED"
	}
	return "ok"
}

// selectRuns loads path, or the runs labelled set when the argument is
// path:set.
func selectRuns(arg string) ([]runRecord, error) {
	path, set := arg, ""
	if _, err := os.Stat(arg); err != nil {
		if i := strings.LastIndexByte(arg, ':'); i > 0 {
			path, set = arg[:i], arg[i+1:]
		}
	}
	rs, err := readRunSet(path)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, r := range rs.Runs {
		if set == "" || r.Set == set {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", arg)
	}
	return out, nil
}

func valuesOf(runs []runRecord, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Values[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// runCompare prints one row per (metric, workload) for the two run-sets
// and reports whether any end-to-end metric regressed past its bound.
func runCompare(w io.Writer, argA, argB string) (regressed bool, err error) {
	a, err := selectRuns(argA)
	if err != nil {
		return false, err
	}
	b, err := selectRuns(argB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tUNIT\tN\tMEDIAN A\tMEDIAN B\tWORSE BY\tBOUND\tSPREAD A\tSPREAD B\tVERDICT")
	fmtSpread := func(xs []float64) string {
		if s, ok := spread(xs); ok {
			return fmt.Sprintf("%.4f", s)
		}
		return "n/a"
	}
	for _, section := range []struct {
		defs  []metricDef
		trace int
	}{{endToEnd, 0}, {perLayer, 1}} {
		for _, wl := range workloads {
			for _, def := range section.defs {
				va, vb := valuesOf(a, wl.Name, section.trace, def.Name), valuesOf(b, wl.Name, section.trace, def.Name)
				if len(va) == 0 && len(vb) == 0 {
					continue
				}
				v := verdict(va, vb, def)
				if v == "REGRESSED" {
					regressed = true
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.4f\t%.3g\t%s\t%s\t%s\n",
					wl.Name, def.Name, def.Unit, len(va), len(vb), median(va), median(vb),
					worsening(median(va), median(vb), def.Better), def.Bound, fmtSpread(va), fmtSpread(vb), v)
			}
		}
	}
	return regressed, tw.Flush()
}
