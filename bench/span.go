package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from outside the program — around calls into its public
// functions — so a span's children are the calls the benchmark itself
// nested inside it, not the program's internal stages.
type span struct {
	Name   string `json:"name"`   // <layer>.<op>
	ID     int64  `json:"id"`     // shared by every span of one batch/request
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Start  int64  `json:"start"`  // ns since the trace started
	End    int64  `json:"end"`
	Lines  int    `json:"lines,omitempty"` // log lines the call carried
}

// tracer keeps spans in memory and writes them out at exit. A nil tracer
// records nothing, so untraced runs pay only a nil check per call site.
// It is used from one goroutine at a time per workload phase; the
// query-mixed reader and writer each own a tracer.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer returns a tracer whose span times count from epoch, so spans
// of several tracers of one run share a time base.
func newTracer(epoch time.Time) *tracer {
	return &tracer{t0: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

// end closes span i, recording how many log lines it carried.
func (t *tracer) end(i, lines int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].Lines = lines
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count  int
	Lines  int
	Self   time.Duration // sum of self times
	SelfMs []float64     // per-span self time, for medians
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cursor := s.Start
		for _, k := range iv {
			lo, hi := max(k[0], cursor), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// aggregate folds spans into per-name layer statistics.
func aggregate(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Lines += s.Lines
		st.Self += self[i]
		st.SelfMs = append(st.SelfMs, float64(self[i])/float64(time.Millisecond))
	}
	return out
}

// nsPerLine is a layer's self time per log line it carried.
func (st *layerStat) nsPerLine() float64 {
	if st == nil || st.Lines == 0 {
		return 0
	}
	return float64(st.Self) / float64(st.Lines)
}

// usPerCall is a layer's mean self time per call, in microseconds.
func (st *layerStat) usPerCall() float64 {
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.Self) / float64(st.Count) / 1e3
}

// p50ms is the median per-call self time, in milliseconds.
func (st *layerStat) p50ms() float64 {
	if st == nil {
		return 0
	}
	return median(st.SelfMs)
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since trace start", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
