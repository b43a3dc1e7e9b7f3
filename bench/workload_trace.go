package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
	"bytebrain/internal/obs"
	"bytebrain/internal/segment"
)

// runTraced is the traced run of a service workload: an untraced window
// (the tails, and the base of the tracing overhead), the same window with
// spans, a quiescent five-kind read cycle, then direct calls into the
// layers below the service. Counter-derived metrics come from the
// difference of two /metrics scrapes around the windows.
func (w *serviceWorkload) runTraced(c *runCtx) error {
	if _, _, err := w.window(c, c.phase(0.1), false); err != nil {
		return err
	}
	runtime.GC()
	before, err := scrape(w.svc)
	if err != nil {
		return err
	}
	raw0 := w.raw
	plain, _, err := w.window(c, c.phase(0.3), false)
	if err != nil {
		return err
	}
	traced, tracedReads, err := w.window(c, c.phase(0.3), true)
	if err != nil {
		return err
	}
	windowRaw := w.raw - raw0
	windowWall := (plain.wall + traced.wall).Seconds()

	if _, err := w.footprint(); err != nil {
		return err
	}
	c.tr = c.newTracer()
	reads := w.readPhase(c, c.phase(0.15))
	if w.kind == kindMixed {
		// The contended latencies are the workload's own; the quiescent
		// cycle above still feeds the prune ratio and the checks.
		reads.lat = tracedReads.lat
	}
	after, err := scrape(w.svc)
	if err != nil {
		return err
	}
	if _, err := w.verify(c, reads); err != nil {
		return err
	}

	var inproc writeResult
	if w.kind == kindTCP || w.kind == kindHTTP {
		// The same pool and batch size straight into Service.Ingest: what
		// is left of the wire rate after subtracting this is transport.
		inproc, err = w.measure(c, c.phase(0.1), func(c *runCtx, d time.Duration, res *writeResult) error {
			return w.writeInProcess(c, d, wireBatchLines, res)
		})
		if err != nil {
			return err
		}
	}
	if err := w.layerPasses(c); err != nil {
		return err
	}
	c.collect(c.tr)
	c.tr = nil
	if w.kind.durable() {
		took, err := w.reopen(c)
		if err != nil {
			return err
		}
		c.set("logstore.reopen.ms", float64(took)/float64(time.Millisecond))
	}

	d := counters{before, after}
	agg := aggregate(c.spans)
	hits, misses := d.topic("bb_line_cache_hits_total"), d.topic("bb_line_cache_misses_total")
	matchShare := ratio(d.topic("bb_ingest_match_seconds_sum"), windowWall)
	appendShare := ratio(d.topic("bb_ingest_append_seconds_sum"), windowWall)
	pruned, read := d.topic("bb_segment_blocks_pruned_total"), d.topic("bb_segment_blocks_read_total")

	c.set("write_p99_ms", plain.lat.sliceP99ms())
	c.set("query_p99_ms", reads.worstP99ms())
	for _, k := range queryKinds {
		c.set("service.query."+k+".p50_ms", reads.lat[k].p50ms())
	}
	if plain.late != nil {
		c.set("writer.late_p99_ms", plain.late.sliceP99ms())
	}
	c.set("trace_overhead_ratio", ratio(traced.rate(), plain.rate()))

	c.set("service.ingest.ns_per_line", agg["service.ingest"].nsPerLine())
	c.set("service.line_cache.hit_ratio", ratio(hits, hits+misses))
	c.set("service.line_cache.evictions", d.topic("bb_line_cache_evictions_total"))
	c.set("service.train_swaps", d.topic("bb_train_swaps_total"))
	c.set("service.ingest.match_share", matchShare)
	c.set("service.ingest.append_share", appendShare)
	c.set("service.ingest.unattributed_share", 1-matchShare-appendShare)

	c.set("logstore.wal.bytes_per_raw_byte", ratio(d.topic("bb_wal_append_bytes_total"), float64(windowRaw)))
	c.set("logstore.seal.count", d.topic("bb_store_seals_total"))
	c.set("logstore.seal.mean_ms", 1e3*ratio(d.topic("bb_store_seal_seconds_sum"), d.topic("bb_store_seal_seconds_count")))
	c.set("segment.prune_ratio", ratio(pruned, pruned+read))

	if w.kind == kindTCP || w.kind == kindMixed {
		c.set("netingest.append_frame.ns_per_line", agg["netingest.append_frame"].nsPerLine())
		c.set("netingest.frame.p50_ms", traced.lat.p50ms())
		c.set("netingest.busy_ratio", ratio(float64(plain.busy+traced.busy), d.global("bb_netingest_frames_total")))
	}
	if inproc.lines > 0 {
		name := "wire.tcp_overhead_ns_per_line"
		if w.kind == kindHTTP {
			name = "wire.http_overhead_ns_per_line"
		}
		c.set(name, 1e9/traced.rate()-1e9/inproc.rate())
	}
	for name, span := range map[string]string{
		"logstore.append_batch.mem.ns_per_line":        "logstore.append_batch.mem",
		"logstore.append_batch.compacting.ns_per_line": "logstore.append_batch.compacting",
		"logstore.append_batch.fsync8.ns_per_line":     "logstore.append_batch.fsync8",
		"netingest.frame_decode.ns_per_line":           "netingest.frame_decode",
		"http.handler.ns_per_line":                     "http.handler",
		"segment.encode.ns_per_record":                 "segment.encode",
		"segment.decode.ns_per_record":                 "segment.decode",
	} {
		c.set(name, agg[span].nsPerLine())
	}
	for name, span := range map[string]string{
		"logstore.grouped_counts.us":        "logstore.grouped_counts",
		"logstore.template_counts_range.us": "logstore.template_counts_range",
		"logstore.search_range.us":          "logstore.search_range",
		"logstore.by_template_range.us":     "logstore.by_template_range",
		"logstore.get_batch.us":             "logstore.get_batch",
		"segment.open.us":                   "segment.open",
		"obs.render.us":                     "obs.render",
	} {
		c.set(name, agg[span].usPerCall())
	}
	return nil
}

// Sizes of the direct layer passes.
const (
	passLines   = 50000 // lines appended per store pass
	passQueries = 10    // calls per quiescent store query, fewer once passBudget is spent
	passFrames  = 2000  // frames decoded, requests served on the recorder

	// passBudget caps the quiescent store queries: on a store of millions
	// of records one unprunable search takes seconds.
	passBudget = 2 * time.Second
)

// layerPasses calls the layers under the service directly, one span per
// call or per pass: the store's query operations on the workload's own
// store while nothing else runs, AppendBatch into fresh stores with
// template IDs already resolved, the segment codec, the frame codec, the
// HTTP handler without a socket, and the /metrics render.
func (w *serviceWorkload) layerPasses(c *runCtx) error {
	store, err := w.svc.Store(topicName)
	if err != nil {
		return err
	}
	span := w.spanTo.Sub(w.spanFrom)
	from := w.spanFrom.Add(span / 2)
	tr := logstore.TimeRange{From: from, To: from.Add(mixedRangeWidth)}
	n := int64(store.Len())
	sample := make([]int64, 25)
	for i := range sample {
		sample[i] = n * int64(i) / int64(len(sample))
	}
	for i, t0 := int64(0), time.Now(); i < passQueries && (i == 0 || time.Since(t0) < passBudget); i++ {
		sp := c.tr.begin("logstore.grouped_counts", i, -1)
		store.GroupedCounts(5, logstore.TimeRange{})
		c.tr.end(sp, 0)
		sp = c.tr.begin("logstore.template_counts_range", i, -1)
		store.TemplateCounts(tr)
		c.tr.end(sp, 0)
		sp = c.tr.begin("logstore.search_range", i, -1)
		store.SearchRange(w.searchToken, logstore.TimeRange{})
		c.tr.end(sp, 0)
		sp = c.tr.begin("logstore.by_template_range", i, -1)
		store.ByTemplateRange(tr, w.topTemplate)
		c.tr.end(sp, 0)
		sp = c.tr.begin("logstore.get_batch", i, -1)
		_, err := store.GetBatch(sample)
		c.tr.end(sp, 0)
		c.check(err == nil, "GetBatch: %v", err)
		sp = c.tr.begin("obs.render", i, -1)
		var buf bytes.Buffer
		err = w.svc.Registry().WritePrometheus(&buf)
		c.tr.end(sp, 0)
		c.check(err == nil && buf.Len() > 0, "metrics render: %v", err)
	}

	// Records with their template IDs already resolved, from the store.
	offsets := make([]int64, min(len(w.gaTruth), c.scale(poolLines)))
	for i := range offsets {
		offsets[i] = w.gaFirst + int64(i)
	}
	resolved, err := w.svc.Records(topicName, offsets)
	if err != nil {
		return err
	}
	recs := make([]logstore.BatchRecord, len(resolved))
	segRecs := make([]segment.Record, len(resolved))
	lines := make([]string, len(resolved))
	for i, r := range resolved {
		recs[i] = logstore.BatchRecord{Raw: r.Raw, TemplateID: r.TemplateID}
		segRecs[i] = segment.Record{Offset: int64(i), Time: r.Time, Raw: r.Raw, TemplateID: r.TemplateID}
		lines[i] = r.Raw
	}

	appendPass := func(name string, st logstore.Store) error {
		sp := c.tr.begin(name, 0, -1)
		done := 0
		for total := c.scale(passLines); done < total; {
			lo := done % len(recs)
			batch := recs[lo:min(lo+ingestBatchLines, len(recs))]
			if _, err := st.AppendBatch(simBase, batch); err != nil {
				return err
			}
			done += len(batch)
		}
		c.tr.end(sp, done)
		c.check(st.Len() == done, "%s: store holds %d of %d appended records", name, st.Len(), done)
		return st.Close()
	}
	if err := appendPass("logstore.append_batch.mem", logstore.NewStore("direct")); err != nil {
		return err
	}
	if w.kind.durable() {
		for _, v := range []struct {
			name  string
			every int
		}{{"logstore.append_batch.compacting", 0}, {"logstore.append_batch.fsync8", 8}} {
			fsyncs := new(obs.Counter)
			st, err := logstore.OpenCompacting("direct", logstore.CompactConfig{
				Dir:          filepath.Join(c.dir, v.name),
				SegmentBytes: w.cfg.SegmentBytes,
				Codec:        segment.CodecFlate,
				Opts:         logstore.StoreOptions{FsyncEveryBatches: v.every, Metrics: &logstore.Metrics{WALFsyncs: fsyncs}},
			})
			if err != nil {
				return err
			}
			if err := appendPass(v.name, st); err != nil {
				return err
			}
			if v.every > 0 {
				c.set("logstore.wal.fsyncs", float64(fsyncs.Value()))
			}
		}

		sp := c.tr.begin("segment.encode", 0, -1)
		data, stats, err := segment.Encode(segRecs, segment.CodecFlate)
		c.tr.end(sp, len(segRecs))
		if err != nil {
			return err
		}
		c.set("segment.encode.ratio", stats.Ratio())
		var reader *segment.Reader
		for i := int64(0); i < passQueries; i++ {
			sp = c.tr.begin("segment.open", i, -1)
			reader, err = segment.Open(data)
			c.tr.end(sp, 0)
			if err != nil {
				return err
			}
		}
		sp = c.tr.begin("segment.decode", 0, -1)
		decoded, err := reader.Records()
		c.tr.end(sp, len(decoded))
		c.check(err == nil && len(decoded) == len(segRecs), "segment decode returned %d of %d records: %v", len(decoded), len(segRecs), err)
	}

	// Frame codec: what the server does to a frame before Service.Ingest.
	frameLines := wireBatchLines
	if w.kind == kindMixed {
		frameLines = mixedFrameLines
	}
	var wire []byte
	for i := 0; i < c.scale(passFrames); i++ {
		lo := (i * frameLines) % (len(lines) - frameLines)
		if wire, err = netingest.AppendFrame(wire, uint32(i+1), topicName, lines[lo:lo+frameLines]); err != nil {
			return err
		}
	}
	sp := c.tr.begin("netingest.frame_decode", 0, -1)
	var frame netingest.Frame
	decodedLines, decodedBytes := 0, 0
	for rest := wire; len(rest) > 0; {
		h := netingest.ParseHeader(rest[:netingest.HeaderSize])
		body := rest[netingest.HeaderSize : netingest.HeaderSize+h.BodyLen()]
		if err := frame.Decode(h, body); err != nil {
			return err
		}
		for i := 0; i < frame.Lines(); i++ {
			decodedBytes += len(frame.Line(i))
		}
		decodedLines += frame.Lines()
		rest = rest[netingest.HeaderSize+h.BodyLen():]
	}
	c.tr.end(sp, decodedLines)
	c.check(decodedLines == c.scale(passFrames)*frameLines && decodedBytes > 0, "frame decode saw %d lines", decodedLines)

	// The HTTP handler without a socket.
	handler := w.svc.Handler()
	batch := ingestBatchLines
	if w.kind == kindTCP || w.kind == kindHTTP {
		batch = wireBatchLines
	}
	for i := 0; i < c.scale(passFrames); i++ {
		lo := (i * batch) % (len(lines) - batch)
		body := strings.Join(lines[lo:lo+batch], "\n")
		req := httptest.NewRequest(http.MethodPost, "/topics/"+topicName+"/logs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		sp := c.tr.begin("http.handler", int64(i), -1)
		handler.ServeHTTP(rec, req)
		c.tr.end(sp, batch)
		if rec.Code != http.StatusOK {
			c.ops(1, 1)
			continue
		}
		c.ops(1, 0)
		w.stored += int64(batch)
		w.raw += rawBytes(lines[lo : lo+batch])
	}
	return nil
}
