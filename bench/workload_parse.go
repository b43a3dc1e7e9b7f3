package main

import (
	"fmt"
	"runtime"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/datagen"
	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
	"bytebrain/internal/metrics"
	"bytebrain/internal/tokenize"
	"bytebrain/internal/vars"
)

// Frozen sizes of parse-offline (calibrated on the box named in
// README.md; -smoke divides them by 100).
const (
	parseCutLines   = 50000 // lines per LogHub-2.0 cut
	parseTrainShare = 0.6   // first 60% trains, the rest is held out
	matchBatchLines = 256   // MatchBatch call size, the service's batch size
	queryThreshold  = 0.7
	gaFloor         = 0.6 // a mean GA below this fails the run
)

var parseDatasets = []string{"HDFS", "BGL", "Thunderbird"}

// parseOffline is the paper's offline experiment: no store, no service.
type parseOffline struct {
	cuts   []*datagen.Dataset
	parser *core.Parser
}

func (p *parseOffline) setup(c *runCtx) error {
	p.parser = core.New(core.Options{Seed: c.opt.seed})
	p.cuts = p.cuts[:0]
	for i, name := range parseDatasets {
		ds, err := genCut(name, c.scale(parseCutLines), c.opt.seed+int64(i))
		if err != nil {
			return err
		}
		p.cuts = append(p.cuts, ds)
	}
	return nil
}

func (p *parseOffline) close() error { return nil }

// parseRound is what one pass over the three cuts measured.
type parseRound struct {
	trainLines, matchLines int
	matchCalls             int
	trainTime, matchTime   time.Duration
	ga                     []float64
	modelBytes, rawBytes   int64
	templates              int
	tempLines              int
	models                 []*core.Model
	matchers               []*core.Matcher
	heldIDs                [][]uint64
}

// round trains and matches every cut once. Each MatchBatch call's latency
// lands in lat; spans are recorded when c.tr is set.
func (p *parseOffline) round(c *runCtx, phaseStart time.Time, lat *latencies) (*parseRound, error) {
	r := &parseRound{}
	for ci, ds := range p.cuts {
		cutSpan := c.tr.begin("bench.cut", int64(ci), -1)
		split := int(float64(len(ds.Lines)) * parseTrainShare)
		train, held := ds.Lines[:split], ds.Lines[split:]

		sp := c.tr.begin("core.train", int64(ci), cutSpan)
		t0 := time.Now()
		res, err := p.parser.Train(train)
		r.trainTime += time.Since(t0)
		c.tr.end(sp, len(train))
		c.ops(1, 0)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", ds.Name, err)
		}
		r.trainLines += len(train)
		r.rawBytes += rawBytes(train)
		r.templates += res.Model.Len()

		pred := make([]int, len(res.Assign))
		for i, id := range res.Assign {
			pred[i] = int(id)
		}
		ga, err := metrics.GroupingAccuracy(pred, ds.Truth[:split])
		if err != nil {
			return nil, err
		}
		r.ga = append(r.ga, ga)

		matcher, err := p.parser.NewMatcher(res.Model)
		if err != nil {
			return nil, fmt.Errorf("matcher %s: %w", ds.Name, err)
		}
		ids := make([]uint64, 0, len(held))
		for lo := 0; lo < len(held); lo += matchBatchLines {
			batch := held[lo:min(lo+matchBatchLines, len(held))]
			sp := c.tr.begin("core.match_batch", int64(ci), cutSpan)
			t0 := time.Now()
			out := matcher.MatchBatch(batch)
			d := time.Since(t0)
			c.tr.end(sp, len(batch))
			r.matchTime += d
			r.matchCalls++
			lat.add(time.Since(phaseStart), d)
			bad := int64(0)
			for _, m := range out {
				if m.NodeID == 0 {
					bad++
				}
				if _, trained := res.Model.Nodes[m.NodeID]; !trained {
					r.tempLines++
				}
				ids = append(ids, m.NodeID)
			}
			c.ops(1, min(bad, 1))
		}
		r.matchLines += len(held)
		r.models = append(r.models, res.Model)
		r.matchers = append(r.matchers, matcher)
		r.heldIDs = append(r.heldIDs, ids)
		c.tr.end(cutSpan, len(ds.Lines))
	}
	return r, nil
}

// rollup is the offline form of the grouped query: count the held-out
// lines per template ID, then walk each distinct ID up to the coarsest
// ancestor that still meets the threshold. It returns how many lines it
// grouped.
func rollup(m *core.Matcher, ids []uint64) (int, error) {
	counts := make(map[uint64]int)
	for _, id := range ids {
		counts[id]++
	}
	rows := make(map[uint64]int)
	for id, n := range counts {
		node, err := m.TemplateAt(id, queryThreshold)
		if err != nil {
			return 0, err
		}
		rows[node.ID] += n
	}
	total := 0
	for _, n := range rows {
		total += n
	}
	return total, nil
}

// readPhase times roll-ups for d. One operation rolls up all three cuts'
// held-out IDs, so its latency has one mode, not one per dataset.
func (p *parseOffline) readPhase(c *runCtx, r *parseRound, d time.Duration) (*latencies, error) {
	lat := newLatencies(1 << 12)
	start := time.Now()
	for i := int64(0); time.Since(start) < d || i == 0; i++ {
		sp := c.tr.begin("core.rollup", i, -1)
		t0 := time.Now()
		total, want := 0, 0
		for k, m := range r.matchers {
			n, err := rollup(m, r.heldIDs[k])
			if err != nil {
				return nil, err
			}
			total += n
			want += len(r.heldIDs[k])
		}
		lat.add(time.Since(start), time.Since(t0))
		c.tr.end(sp, want)
		c.check(total == want, "roll-up grouped %d of %d held-out lines", total, want)
	}
	return lat, nil
}

func (p *parseOffline) run(c *runCtx) error {
	if c.opt.trace == 1 {
		return p.runTraced(c)
	}
	var rates, trainRates, matchRates, callMs []float64
	var first *parseRound
	lat := newLatencies(1 << 14)
	var lines int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for writePhase := c.phase(0.85); first == nil || time.Since(start) < writePhase; {
		r, err := p.round(c, start, lat)
		if err != nil {
			return err
		}
		if first == nil {
			first = r
		}
		rates = append(rates, float64(r.trainLines+r.matchLines)/(r.trainTime+r.matchTime).Seconds())
		trainRates = append(trainRates, float64(r.trainLines)/r.trainTime.Seconds())
		matchRates = append(matchRates, float64(r.matchLines)/r.matchTime.Seconds())
		callMs = append(callMs, float64(r.matchTime)/float64(time.Millisecond)/float64(r.matchCalls))
		lines += r.trainLines + r.matchLines
	}
	runtime.ReadMemStats(&after)

	for _, m := range first.models {
		data, err := m.MarshalBinary()
		if err != nil {
			return err
		}
		first.modelBytes += int64(len(data))
	}
	reads, err := p.readPhase(c, first, c.phase(0.15))
	if err != nil {
		return err
	}
	ga, _ := metrics.MeanStd(first.ga)
	c.check(ga >= gaFloor, "mean grouping accuracy %.4f below floor %.2f", ga, gaFloor)

	c.set("logs_per_s", median(rates))
	// The three cuts' call latencies form three modes, and a median over
	// a mix of modes jumps between them; the mean call latency of a round
	// has one mode, and the median over rounds keeps a disturbed round out.
	c.set("write_p50_ms", median(callMs))
	c.set("alloc_bytes_per_line", float64(after.TotalAlloc-before.TotalAlloc)/float64(lines))
	c.set("grouping_accuracy", ga)
	// What offline parsing keeps of its training input: the models, and
	// one 8-byte template ID per line.
	c.set("stored_bytes_per_raw_byte", float64(first.modelBytes+8*int64(first.trainLines))/float64(first.rawBytes))
	c.set("query_cycle_ms", reads.p50ms())

	// Not in the end-to-end table: kept in -out run-sets so training and
	// matching throughput, and the tails, can be watched in the ledger.
	c.set("train_logs_per_s", median(trainRates))
	c.set("match_logs_per_s", median(matchRates))
	c.set("write_p99_ms", lat.sliceP99ms())
	c.set("query_p99_ms", reads.sliceP99ms())
	return nil
}

// runTraced is the traced run: one untraced round for the tails and the
// tracing-overhead base, one traced round, then one direct pass per
// parser layer over the same lines.
func (p *parseOffline) runTraced(c *runCtx) error {
	lat := newLatencies(1 << 12)
	start := time.Now()
	plain, err := p.round(c, start, lat)
	if err != nil {
		return err
	}
	c.tr = c.newTracer()
	traced, err := p.round(c, time.Now(), newLatencies(1<<12))
	if err != nil {
		return err
	}
	reads, err := p.readPhase(c, traced, c.phase(0.1))
	if err != nil {
		return err
	}
	p.layerPasses(c, traced)
	c.collect(c.tr)
	c.tr = nil
	agg := aggregate(c.spans)

	c.set("write_p99_ms", lat.sliceP99ms())
	c.set("query_p99_ms", reads.sliceP99ms())
	c.set("core.train.ns_per_line", agg["core.train"].nsPerLine())
	c.set("core.train.templates", float64(traced.templates))
	c.set("core.match_batch.ns_per_line", agg["core.match_batch"].nsPerLine())
	c.set("core.match.temp_ratio", float64(traced.tempLines)/float64(traced.matchLines))
	c.set("tokenize.fast.ns_per_line", agg["tokenize.fast"].nsPerLine())
	c.set("vars.replace.ns_per_line", agg["vars.replace"].nsPerLine())
	c.set("encode.hash.ns_per_line", agg["encode.hash"].nsPerLine())
	c.set("dedup.collapse.ns_per_line", agg["dedup.collapse"].nsPerLine())
	c.set("core.preprocess.ns_per_line", agg["core.preprocess"].nsPerLine())
	c.set("core.match.ns_per_line", agg["core.match"].nsPerLine())
	c.set("core.model.marshal_ms", agg["core.model.marshal"].p50ms())
	plainRate := float64(plain.matchLines) / plain.matchTime.Seconds()
	tracedRate := float64(traced.matchLines) / traced.matchTime.Seconds()
	c.set("trace_overhead_ratio", tracedRate/plainRate)
	return nil
}

// layerPasses calls each parser layer directly over every cut's lines,
// one span per pass, so a layer's cost is known apart from the Train and
// MatchBatch calls that contain it.
func (p *parseOffline) layerPasses(c *runCtx, r *parseRound) {
	tok := tokenize.NewFast()
	rep := vars.Default()
	enc := encode.HashEncoder{}
	var uniques, records int
	for ci, ds := range p.cuts {
		id := int64(ci)
		lines := ds.Lines

		sp := c.tr.begin("vars.replace", id, -1)
		replaced := make([]string, len(lines))
		for i, l := range lines {
			replaced[i] = rep.ReplaceTokenSafe(l)
		}
		c.tr.end(sp, len(lines))

		sp = c.tr.begin("tokenize.fast", id, -1)
		var buf []string
		for _, l := range replaced {
			buf = tok.TokenizeAppend(buf[:0], l)
		}
		c.tr.end(sp, len(lines))

		sp = c.tr.begin("core.preprocess", id, -1)
		recs := make([][]string, len(lines))
		for i, l := range lines {
			recs[i] = p.parser.PreprocessLine(l)
		}
		c.tr.end(sp, len(lines))

		sp = c.tr.begin("encode.hash", id, -1)
		var codes []uint64
		for _, toks := range recs {
			codes = enc.Encode(codes[:0], toks)
		}
		c.tr.end(sp, len(lines))

		sp = c.tr.begin("dedup.collapse", id, -1)
		dd := dedup.Collapse(recs, enc)
		c.tr.end(sp, len(lines))
		uniques += len(dd.Uniques)
		records += len(recs)

		held := lines[int(float64(len(lines))*parseTrainShare):]
		sp = c.tr.begin("core.match", id, -1)
		for _, l := range held {
			r.matchers[ci].Match(l)
		}
		c.tr.end(sp, len(held))

		sp = c.tr.begin("core.model.marshal", id, -1)
		_, err := r.models[ci].MarshalBinary()
		c.tr.end(sp, 0)
		c.check(err == nil, "marshal model of %s: %v", ds.Name, err)
	}
	c.set("dedup.unique_ratio", float64(uniques)/float64(records))
}
