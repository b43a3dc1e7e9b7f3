package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {20, 1}, {100, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if percentile(nil, 99) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

// One stall lands in one time-slice; the median of the per-slice p99s
// must not move, while the plain p99 over all samples does.
func TestSliceMedianTailIgnoresOneStall(t *testing.T) {
	l := newLatencies(0)
	for i := 0; i < 500; i++ {
		d := time.Millisecond
		if i >= 200 && i < 210 { // a stall inside the third of five slices
			d = 500 * time.Millisecond
		}
		l.add(time.Duration(i)*10*time.Millisecond, d)
	}
	if got := l.sliceP99ms(); got != 1 {
		t.Errorf("slice-median p99 = %v ms, want 1", got)
	}
	if got := percentile(l.ms(), 99); got != 500 {
		t.Errorf("plain p99 = %v ms, want 500 (the stall)", got)
	}
	if got := l.p50ms(); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := newLatencies(0).sliceP99ms(); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

func TestPacerCountsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, interval: 10 * time.Millisecond}
	if got := p.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Frame 3 was due at +30ms, a stall held the send until +70ms, and
	// the ack came 5ms after the send: the frame waited 45ms, not 5.
	sent, acked := start.Add(70*time.Millisecond), start.Add(75*time.Millisecond)
	if got := p.latency(3, acked); got != 45*time.Millisecond {
		t.Errorf("latency = %v, want 45ms from the due time", got)
	}
	if got := p.late(3, sent); got != 40*time.Millisecond {
		t.Errorf("late = %v, want 40ms", got)
	}
	if got := p.late(3, start.Add(29*time.Millisecond)); got != 0 {
		t.Errorf("an early send is not late, got %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, Lines: 10},
		{Name: "kid", Parent: 0, Start: 10, End: 30},
		{Name: "kid", Parent: 0, Start: 20, End: 50},  // overlaps the first child
		{Name: "kid", Parent: 0, Start: 60, End: 120}, // runs past the parent
		{Name: "grandkid", Parent: 1, Start: 12, End: 18},
		{Name: "open", Parent: 0, Start: 5, End: -1}, // never ended: ignored
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [60,100) of the root: 80 of 100.
	if self[0] != 20 {
		t.Errorf("root self = %d, want 20", self[0])
	}
	if self[1] != 14 { // 20 long minus its 6-long child
		t.Errorf("first child self = %d, want 14", self[1])
	}
	agg := aggregate(spans)
	if got := agg["root"].nsPerLine(); got != 2 {
		t.Errorf("root ns/line = %v, want 2", got)
	}
	if agg["kid"].Count != 3 || agg["open"] != nil {
		t.Errorf("aggregate counted %d kid spans, open=%v", agg["kid"].Count, agg["open"])
	}
	var missing *layerStat
	if missing.nsPerLine() != 0 || missing.usPerCall() != 0 || missing.p50ms() != 0 {
		t.Error("a layer with no spans must report 0")
	}
}

func TestCollectRebasesParents(t *testing.T) {
	c := &runCtx{epoch: time.Now()}
	for i := 0; i < 2; i++ {
		tr := c.newTracer()
		root := tr.begin("root", int64(i), -1)
		tr.end(tr.begin("kid", int64(i), root), 1)
		tr.end(root, 1)
		c.collect(tr)
	}
	if len(c.spans) != 4 || c.spans[3].Parent != 2 || c.spans[2].Parent != -1 {
		t.Errorf("spans after collect: %+v", c.spans)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3, _ := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if s, _ := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "logs_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "write_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", steady, steady, higher, "ok"},
		{"throughput fell 20%", steady, []float64{80, 81, 79, 80, 80}, higher, "REGRESSED"},
		{"throughput rose", steady, []float64{120, 121, 119, 120, 120}, higher, "ok"},
		{"latency rose 20%", steady, []float64{120, 121, 119, 120, 120}, lower, "REGRESSED"},
		{"latency fell", steady, []float64{80, 81, 79, 80, 80}, lower, "ok"},
		{"noisy set", steady, []float64{60, 100, 140, 80, 120}, higher, "unresolved"},
		{"ungated", steady, steady, metricDef{Better: "lower"}, "-"},
		{"one side empty", steady, nil, higher, "missing"},
	} {
		if got := verdict(tc.a, tc.b, tc.def); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.json")
	for _, r := range []struct {
		set  string
		rate float64
	}{{"a", 100}, {"a", 101}, {"a", 99}, {"b", 60}, {"b", 61}, {"b", 59}} {
		res := &result{Correct: true, Attempted: 1, all: map[string]float64{"logs_per_s": r.rate}}
		if err := appendRun(path, options{workload: "ingest-fresh", set: r.set, seconds: 1}, res); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	regressed, err := runCompare(&out, path+":a", path+":b")
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 40%% drop was not reported:\n%s", out.String())
	}
	out.Reset()
	if regressed, err = runCompare(&out, path+":a", path+":a"); err != nil || regressed {
		t.Errorf("a set compared with itself: regressed=%v err=%v", regressed, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricTableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q is listed twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", d.Name)
		}
	}
}

// BENCHMARK.json is written from the table (bench -manifest); this fails
// when someone edits one and not the other.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	gotText, _ := json.MarshalIndent(got, "", " ")
	wantText, _ := json.MarshalIndent(want, "", " ")
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("BENCHMARK.json disagrees with the metric table; regenerate it with `go run ./bench -manifest > BENCHMARK.json`\nfile:  %s\ntable: %s", gotText, wantText)
	}
}

// Every workload, untraced and traced, at about 1% of the frozen sizes:
// keeps the harness compiling and its output checks passing in tier 1.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o := options{
				workload: wl.Name, seed: 7, seconds: 0.4, trace: trace, smoke: true,
				scratch: t.TempDir(), traceDir: t.TempDir(),
			}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v", wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present=%v)", wl.Name, trace, d.Name, m, ok)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.traceDir, "trace-"+wl.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", wl.Name, err)
				}
			}
		}
	}
}

func TestListNamesEveryMetric(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("-list omits %s", d.Name)
			}
		}
	}
}
