// Command bench is the repository's layered benchmark: six workloads
// that each make a different layer dominate, a fixed set of end-to-end
// metrics measured with tracing off, and a traced run that attributes
// time to layers from outside the program. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload ingest-fresh   one workload
//	go run ./bench -workload X -trace 1     the traced run of one workload
//	go run ./bench -list                    the metric table
//	go run ./bench -compare a.json b.json   apply the bounds to two run-sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	set      string
	// scratch holds data dirs for the length of a run; traceDir receives
	// trace-<workload>.json. Both are relative to the working directory,
	// which is the repository root for `go run ./bench`.
	scratch  string
	traceDir string
}

func main() {
	o := options{scratch: filepath.Join(".bench_build", "run"), traceDir: filepath.Join("bench", "out")}
	var list, manifest, compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "about 1% of the frozen sizes and a fraction of a second per phase")
	flag.StringVar(&o.out, "out", "", "append this invocation's results to a run-set JSON file")
	flag.StringVar(&o.set, "set", "", "label stored with results written by -out")
	flag.BoolVar(&list, "list", false, "print the metric table and exit")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as derived from the metric table and exit")
	flag.BoolVar(&compare, "compare", false, "compare two run-set files given as arguments: path or path:set")
	flag.Parse()

	switch {
	case list:
		printList(os.Stdout)
		return
	case manifest:
		os.Stdout.Write(manifestJSON())
		return
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[:set] b.json[:set]")
			os.Exit(2)
		}
		regressed, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := runAll(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs the selected workload (or every workload in both modes),
// prints each result, and fails if any output check failed.
func runAll(o options, w io.Writer) error {
	type job struct {
		name  string
		trace int
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var jobs []job
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		jobs = []job{{o.workload, o.trace}}
	} else {
		for _, wl := range workloads {
			jobs = append(jobs, job{wl.Name, 0}, job{wl.Name, 1})
		}
	}
	var failed bool
	for _, j := range jobs {
		jo := o
		jo.workload, jo.trace = j.name, j.trace
		res, err := runWorkload(jo)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		printResult(w, jo, res)
		if o.out != "" {
			if err := appendRun(o.out, jo, res); err != nil {
				return err
			}
		}
		// The contract line: one JSON object, last on standard output.
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(line))
		if !res.Correct {
			failed = true
		}
	}
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	failures  []string
	all       map[string]float64 // every value the run produced, gated or not
}

// runCtx carries one run's settings, scratch directory, tracer and
// accumulating result through set-up, the measured phases and the output
// checks.
type runCtx struct {
	opt    options
	dir    string    // scratch directory, removed when the run ends
	tr     *tracer   // nil unless this is the traced part of a traced run
	spans  []span    // spans collected across tracers of this run
	epoch  time.Time // time base of every tracer of this run
	values map[string]float64
	// trainRates holds the forced-Train lines/s of each set-up.
	trainRates []float64
	attempt    int64
	failed     int64
	fails      []string
}

// scale shrinks a frozen size for -smoke.
func (c *runCtx) scale(n int) int {
	if !c.opt.smoke {
		return n
	}
	if n = n / 100; n < 600 {
		n = 600
	}
	return n
}

// phase is the length of a measured phase that takes share of -seconds.
func (c *runCtx) phase(share float64) time.Duration {
	return time.Duration(c.opt.seconds * share * float64(time.Second))
}

// ops counts n attempted operations, failedN of which failed.
func (c *runCtx) ops(n, failedN int64) {
	c.attempt += n
	c.failed += failedN
}

// check records one output check as an attempted operation.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.attempt++
	if !ok {
		c.failed++
		if len(c.fails) < 20 {
			c.fails = append(c.fails, fmt.Sprintf(format, args...))
		}
	}
}

func (c *runCtx) set(name string, v float64) { c.values[name] = v }

func (c *runCtx) newTracer() *tracer { return newTracer(c.epoch) }

// collect moves a finished tracer's spans into the run's span list,
// re-basing their parent indexes.
func (c *runCtx) collect(t *tracer) {
	base := len(c.spans)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		c.spans = append(c.spans, s)
	}
}

// workloadRunner is the code behind one workload name: setup builds the
// inputs and the program state (it is timed, and repeated for setup_s);
// run measures, verifies and fills c.values; close releases what setup
// built.
type workloadRunner interface {
	setup(c *runCtx) error
	run(c *runCtx) error
	close() error
}

func newRunner(name string) workloadRunner {
	switch name {
	case "parse-offline":
		return &parseOffline{}
	case "ingest-fresh":
		return &serviceWorkload{kind: kindFresh}
	case "ingest-repeat":
		return &serviceWorkload{kind: kindRepeat}
	case "ingest-tcp":
		return &serviceWorkload{kind: kindTCP}
	case "ingest-http":
		return &serviceWorkload{kind: kindHTTP}
	case "query-mixed":
		return &serviceWorkload{kind: kindMixed}
	}
	return nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// runWorkload runs one workload once: repeated set-up, the measured
// phases, the output checks.
func runWorkload(o options) (*result, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{opt: o, dir: dir, values: make(map[string]float64), epoch: time.Now()}

	var r workloadRunner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		r = newRunner(o.workload)
		c.dir = filepath.Join(dir, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(c); err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", median(setups))
	runErr := r.run(c)
	if err := r.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("close: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	if o.trace == 1 {
		if err := writeTrace(filepath.Join(o.traceDir, "trace-"+o.workload+".json"), o.workload, c.spans); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	res := &result{
		Correct:   c.failed == 0,
		Attempted: c.attempt,
		Failed:    c.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
		failures:  c.fails,
		all:       c.values,
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: c.values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// printResult writes one run's metrics by name with their units.
func printResult(w io.Writer, o options, res *result) {
	mode := "end-to-end"
	if o.trace == 1 {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s ==\n", o.workload, o.seed, o.seconds, mode)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 2, 2, ' ', 0)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", n, m.Value, m.Unit)
	}
	tw.Flush()
	fmt.Fprintf(w, "ops attempted=%d failed=%d fail_ratio=%.6g correct=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED CHECK:", f)
	}
}
