package service

import (
	"time"

	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
	"bytebrain/internal/obs"
)

// Query kinds, the label values of bb_query_seconds / bb_queries_total.
const (
	queryKindGrouped   = "grouped"    // Query/QueryMerged over all time
	queryKindTimeRange = "time-range" // Query/QueryMerged with a bounded range
	queryKindTemplate  = "template"   // ByTemplate offset lookup
	queryKindSearch    = "search"     // token search
)

var queryKinds = []string{queryKindGrouped, queryKindTimeRange, queryKindTemplate, queryKindSearch}

// batchSizeBuckets covers the ingest/WAL batch-size distributions, from
// single-line TCP frames to multi-thousand-line HTTP posts.
var batchSizeBuckets = obs.SizeBuckets(1, 8, 32, 64, 128, 256, 512, 1024, 4096, 16384)

// serviceMetrics owns the service's registry and every metric family,
// registered once at New so topic creation only resolves label values.
type serviceMetrics struct {
	reg *obs.Registry

	// Ingest hot path.
	ingestLines   *obs.CounterVec
	ingestBatches *obs.CounterVec
	matchSeconds  *obs.HistogramVec
	appendSeconds *obs.HistogramVec

	// Line cache.
	cacheHits      *obs.CounterVec
	cacheMisses    *obs.CounterVec
	cacheEvictions *obs.CounterVec

	// Queries.
	querySeconds *obs.HistogramVec
	queries      *obs.CounterVec
	slowQueries  *obs.CounterVec

	// Trainer.
	trainSeconds   *obs.HistogramVec
	trainSwaps     *obs.CounterVec
	trainErrors    *obs.CounterVec
	trainLastError *obs.GaugeVec

	// Logstore: WAL, recovery, compaction, pushdown.
	walAppendRecords   *obs.CounterVec
	walAppendBytes     *obs.CounterVec
	walFsyncs          *obs.CounterVec
	walFsyncErrors     *obs.CounterVec
	walFsyncSeconds    *obs.HistogramVec
	walPoisonRotations *obs.CounterVec
	walRecoveredRecs   *obs.CounterVec
	walTornTails       *obs.CounterVec
	recoveredSegments  *obs.CounterVec
	storeBatchRecords  *obs.HistogramVec
	storeSeals         *obs.CounterVec
	storeSealSeconds   *obs.HistogramVec
	storeSealRetries   *obs.CounterVec
	storeSealWaits     *obs.CounterVec
	storeSealWaitSecs  *obs.HistogramVec
	storeDegradedSum   *obs.CounterVec
	storeDegraded      *obs.FuncVec
	blocksPruned       *obs.CounterVec
	segmentReadErrors  *obs.CounterVec
	blocksRead         *obs.FuncVec

	// Per-topic state gauges, bound to live accessors at topic create.
	topicRecords   *obs.FuncVec
	topicBytes     *obs.FuncVec
	topicTemplates *obs.FuncVec
	topicReservoir *obs.FuncVec
	topicTrainings *obs.FuncVec
	topicSegments  *obs.FuncVec

	// Streaming TCP ingest (internal/netingest). Zero-label families:
	// the per-frame hot path must not pay a labeled-series lookup, and
	// the listener is service-wide anyway.
	netIngest netingest.Metrics
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	lat := obs.LatencyBuckets
	return &serviceMetrics{
		reg: reg,

		ingestLines:   reg.Counter("bb_ingest_lines_total", "Log lines ingested.", "topic"),
		ingestBatches: reg.Counter("bb_ingest_batches_total", "Ingest group-commit batches.", "topic"),
		matchSeconds:  reg.Histogram("bb_ingest_match_seconds", "Per-batch template resolution time (line cache + matcher).", lat, "topic"),
		appendSeconds: reg.Histogram("bb_ingest_append_seconds", "Per-batch store append time (WAL write + in-memory index).", lat, "topic"),

		cacheHits:      reg.Counter("bb_line_cache_hits_total", "Lines resolved from the snapshot line cache.", "topic"),
		cacheMisses:    reg.Counter("bb_line_cache_misses_total", "Lines that paid full matching.", "topic"),
		cacheEvictions: reg.Counter("bb_line_cache_evictions_total", "Whole-generation line-cache evictions at the cap.", "topic"),

		querySeconds: reg.Histogram("bb_query_seconds", "Query latency by kind.", lat, "topic", "kind"),
		queries:      reg.Counter("bb_queries_total", "Queries served by kind.", "topic", "kind"),
		slowQueries:  reg.Counter("bb_slow_queries_total", "Queries at or over the slow-query threshold.", "topic"),

		trainSeconds:   reg.Histogram("bb_train_cycle_seconds", "Training cycle duration.", lat, "topic"),
		trainSwaps:     reg.Counter("bb_train_swaps_total", "Model snapshot swaps published by training.", "topic"),
		trainErrors:    reg.Counter("bb_train_errors_total", "Failed training cycles.", "topic"),
		trainLastError: reg.Gauge("bb_train_last_error", "1 while the most recent training cycle failed.", "topic"),

		walAppendRecords:   reg.Counter("bb_wal_append_records_total", "Records admitted to write-ahead logs.", "topic"),
		walAppendBytes:     reg.Counter("bb_wal_append_bytes_total", "Bytes written to write-ahead logs.", "topic"),
		walFsyncs:          reg.Counter("bb_wal_fsyncs_total", "Successful WAL fsyncs.", "topic"),
		walFsyncErrors:     reg.Counter("bb_wal_fsync_errors_total", "Failed WAL flush/fsync attempts.", "topic"),
		walFsyncSeconds:    reg.Histogram("bb_wal_fsync_seconds", "WAL fsync latency.", lat, "topic"),
		walPoisonRotations: reg.Counter("bb_wal_poison_rotations_total", "Blocks retired after a WAL write failure.", "topic"),
		walRecoveredRecs:   reg.Counter("bb_wal_recovered_records_total", "Records replayed from WALs at open.", "topic"),
		walTornTails:       reg.Counter("bb_wal_torn_tails_total", "WALs truncated at a torn record during recovery.", "topic"),
		recoveredSegments:  reg.Counter("bb_recovered_segments_total", "Sealed segments recovered by metadata at open.", "topic"),
		storeBatchRecords:  reg.Histogram("bb_store_batch_records", "Store-level append batch sizes in records.", batchSizeBuckets, "topic"),
		storeSeals:         reg.Counter("bb_store_seals_total", "Hot blocks sealed into compressed segments.", "topic"),
		storeSealSeconds:   reg.Histogram("bb_store_seal_seconds", "Block seal (encode + write) duration.", lat, "topic"),
		storeSealRetries:   reg.Counter("bb_seal_retries_total", "Failed seal attempts retried with backoff.", "topic"),
		storeSealWaits:     reg.Counter("bb_store_seal_waits_total", "Appends that waited because full blocks were queued for the sealer.", "topic"),
		storeSealWaitSecs:  reg.Histogram("bb_store_seal_wait_seconds", "How long an append waited for the seal queue.", lat, "topic"),
		storeDegradedSum:   reg.Counter("bb_store_degraded_enters_total", "Transitions into degraded read-only mode.", "topic"),
		storeDegraded:      reg.GaugeFunc("bb_store_degraded", "1 while the topic's store is degraded to read-only (ingest shed, queries served).", "topic"),
		blocksPruned:       reg.Counter("bb_segment_blocks_pruned_total", "Sealed-block query visits answered from metadata alone.", "topic"),
		segmentReadErrors:  reg.Counter("bb_segment_read_errors_total", "Sealed-block query visits skipped because the payload failed to decode.", "topic"),
		blocksRead:         reg.CounterFunc("bb_segment_blocks_read_total", "Sealed-block payload decompressions paid by queries.", "topic"),

		topicRecords:   reg.GaugeFunc("bb_topic_records", "Stored records.", "topic"),
		topicBytes:     reg.GaugeFunc("bb_topic_bytes", "Raw payload bytes the topic represents.", "topic"),
		topicTemplates: reg.GaugeFunc("bb_topic_templates", "Templates in the published model (incl. temporaries).", "topic"),
		topicReservoir: reg.GaugeFunc("bb_topic_reservoir_lines", "Lines buffered for the next training cycle.", "topic"),
		topicTrainings: reg.GaugeFunc("bb_topic_trainings", "Completed training cycles.", "topic"),
		topicSegments:  reg.GaugeFunc("bb_topic_segments", "Sealed segments on the topic's store.", "topic"),

		netIngest: netingest.Metrics{
			Connections:       reg.Counter("bb_netingest_connections_total", "TCP ingest connections accepted.").With(),
			ActiveConnections: reg.Gauge("bb_netingest_active_connections", "TCP ingest connections currently open.").With(),
			Frames:            reg.Counter("bb_netingest_frames_total", "Ingest frames (or raw batches) committed.").With(),
			Lines:             reg.Counter("bb_netingest_lines_total", "Log lines ingested over TCP.").With(),
			Bytes:             reg.Counter("bb_netingest_bytes_total", "Line payload bytes ingested over TCP.").With(),
			Busy:              reg.Counter("bb_netingest_busy_total", "Frames dropped with a BUSY ack under backpressure.").With(),
			Errors:            reg.Counter("bb_netingest_errors_total", "Protocol violations and per-frame ingest errors.").With(),
			FrameSeconds:      reg.Histogram("bb_netingest_frame_seconds", "Frame queue-to-ack latency.", lat).With(),
			InflightBytes:     reg.Gauge("bb_netingest_inflight_bytes", "Frame bytes queued between connection readers and ingest workers.").With(),
		},
	}
}

// topicMetrics is one topic's resolved instrument set: every hot-path
// observation is a pre-resolved pointer, so ingest pays atomic ops only —
// no registry lookups, no allocations.
type topicMetrics struct {
	ingestLines   *obs.Counter
	ingestBatches *obs.Counter
	matchSeconds  *obs.Histogram
	appendSeconds *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	querySeconds map[string]*obs.Histogram // by kind
	queries      map[string]*obs.Counter   // by kind
	slowQueries  *obs.Counter

	trainSeconds   *obs.Histogram
	trainSwaps     *obs.Counter
	trainErrors    *obs.Counter
	trainLastError *obs.Gauge

	// store is the bundle handed down to the logstore layer.
	store *logstore.Metrics
}

// topic resolves every per-topic instrument once.
func (m *serviceMetrics) topic(name string) *topicMetrics {
	t := &topicMetrics{
		ingestLines:   m.ingestLines.With(name),
		ingestBatches: m.ingestBatches.With(name),
		matchSeconds:  m.matchSeconds.With(name),
		appendSeconds: m.appendSeconds.With(name),

		cacheHits:      m.cacheHits.With(name),
		cacheMisses:    m.cacheMisses.With(name),
		cacheEvictions: m.cacheEvictions.With(name),

		querySeconds: make(map[string]*obs.Histogram, len(queryKinds)),
		queries:      make(map[string]*obs.Counter, len(queryKinds)),
		slowQueries:  m.slowQueries.With(name),

		trainSeconds:   m.trainSeconds.With(name),
		trainSwaps:     m.trainSwaps.With(name),
		trainErrors:    m.trainErrors.With(name),
		trainLastError: m.trainLastError.With(name),

		store: &logstore.Metrics{
			WALAppendRecords:   m.walAppendRecords.With(name),
			WALAppendBytes:     m.walAppendBytes.With(name),
			WALFsyncs:          m.walFsyncs.With(name),
			WALFsyncErrors:     m.walFsyncErrors.With(name),
			WALFsyncSeconds:    m.walFsyncSeconds.With(name),
			WALPoisonRotations: m.walPoisonRotations.With(name),
			RecoveredRecords:   m.walRecoveredRecs.With(name),
			WALTornTails:       m.walTornTails.With(name),
			RecoveredSegments:  m.recoveredSegments.With(name),
			BatchRecords:       m.storeBatchRecords.With(name),
			Seals:              m.storeSeals.With(name),
			SealSeconds:        m.storeSealSeconds.With(name),
			SealRetries:        m.storeSealRetries.With(name),
			SealWaits:          m.storeSealWaits.With(name),
			SealWaitSeconds:    m.storeSealWaitSecs.With(name),
			DegradedEnters:     m.storeDegradedSum.With(name),
			BlocksPruned:       m.blocksPruned.With(name),
			SegmentReadErrors:  m.segmentReadErrors.With(name),
		},
	}
	for _, kind := range queryKinds {
		t.querySeconds[kind] = m.querySeconds.With(name, kind)
		t.queries[kind] = m.queries.With(name, kind)
	}
	return t
}

// queriesTotal sums the per-kind query counters for the /stats rollup.
func (t *topicMetrics) queriesTotal() int64 {
	var n int64
	for _, c := range t.queries {
		n += c.Value()
	}
	return n
}

// bindTopicGauges wires the func-backed per-topic gauges to the live
// topic state; they read current values at scrape time, costing nothing
// between scrapes.
func (m *serviceMetrics) bindTopicGauges(st *topicState) {
	m.topicRecords.Bind(func() int64 { return int64(st.store.Len()) }, st.name)
	m.topicBytes.Bind(func() int64 { return st.store.Bytes() }, st.name)
	m.topicTemplates.Bind(func() int64 {
		if snap := st.snap.Load(); snap != nil {
			return int64(snap.model.Len() + snap.matcher.TemporaryCount())
		}
		return 0
	}, st.name)
	m.topicReservoir.Bind(func() int64 {
		st.resMu.Lock()
		defer st.resMu.Unlock()
		return int64(len(st.buffer))
	}, st.name)
	m.topicTrainings.Bind(func() int64 { return st.trainings.Load() }, st.name)
	m.topicSegments.Bind(func() int64 { return int64(st.store.SegmentStats().Segments) }, st.name)
	m.blocksRead.Bind(func() int64 { return st.store.SegmentStats().BlockReads }, st.name)
	m.storeDegraded.Bind(func() int64 {
		if deg, _ := st.store.Degraded(); deg {
			return 1
		}
		return 0
	}, st.name)
}

// observeQuery records one served query: per-kind latency and count, plus
// the slow-query counter and structured log line when the configured
// threshold is met.
func (s *Service) observeQuery(st *topicState, kind string, tr TimeRange, start time.Time, results int) {
	d := time.Since(start)
	met := st.met
	met.querySeconds[kind].ObserveDuration(d)
	met.queries[kind].Inc()
	if s.cfg.SlowQueryThreshold <= 0 || d < s.cfg.SlowQueryThreshold {
		return
	}
	met.slowQueries.Inc()
	from, to := "-", "-"
	if !tr.From.IsZero() {
		from = tr.From.UTC().Format(time.RFC3339Nano)
	}
	if !tr.To.IsZero() {
		to = tr.To.UTC().Format(time.RFC3339Nano)
	}
	s.cfg.SlowQueryLogf("slow-query topic=%s kind=%s from=%s to=%s duration=%s results=%d threshold=%s",
		st.name, kind, from, to, d, results, s.cfg.SlowQueryThreshold)
}
