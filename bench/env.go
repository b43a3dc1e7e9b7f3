package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bytebrain/internal/segment"
	"bytebrain/internal/service"
)

// simClock is the injected Config.Now of every service workload: each
// call advances simulated time by step, so record timestamps depend on
// the order of ingest calls and never on how fast the box is. Time-range
// queries therefore select the same records on every run.
type simClock struct {
	base  time.Time
	step  time.Duration
	calls atomic.Int64
}

var simBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func (k *simClock) now() time.Time {
	return k.base.Add(time.Duration(k.calls.Add(1)) * k.step)
}

// peek is the latest simulated instant handed out.
func (k *simClock) peek() time.Time {
	return k.base.Add(time.Duration(k.calls.Load()) * k.step)
}

// scrape renders the service's /metrics text and returns every sample by
// its full series name, e.g. bb_ingest_lines_total{topic="t"}. The
// benchmark reads the program's counters this way — as an operator would
// — instead of registering instruments of its own.
func scrape(svc *service.Service) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// counters is the difference between two scrapes.
type counters struct{ before, after map[string]float64 }

// topic returns how much the named per-topic series grew.
func (d counters) topic(name string) float64 {
	key := name + `{topic="` + topicName + `"}`
	return d.after[key] - d.before[key]
}

// global returns how much an unlabelled series grew.
func (d counters) global(name string) float64 { return d.after[name] - d.before[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// rareToken picks the search token: the token of at least six bytes that
// the fewest lines contain (ties broken by spelling), under the store's
// own definition of a token. A rare token makes search a pruning
// exercise — most sealed blocks cannot hold it.
func rareToken(lines []string) string {
	counts := make(map[string]int)
	var toks []string
	for _, l := range lines {
		toks = segment.TokenizeAppend(toks[:0], l)
		sort.Strings(toks)
		for i, t := range toks {
			if len(t) >= 6 && (i == 0 || toks[i-1] != t) {
				counts[t]++
			}
		}
	}
	best, bestN := "", 0
	for t, n := range counts {
		if best == "" || n < bestN || (n == bestN && t < best) {
			best, bestN = t, n
		}
	}
	return best
}

func hasToken(line, token string) bool {
	for _, t := range segment.Tokenize(line) {
		if t == token {
			return true
		}
	}
	return false
}
