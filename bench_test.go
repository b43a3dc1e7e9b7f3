// Benchmarks: one testing.B per table and figure of the paper, each
// regenerating its artifact through the experiments harness, plus
// micro-benchmarks for the training and matching hot paths.
//
// The per-artifact benches run at reduced scale with surrogate inference
// delays zeroed so the whole suite stays in CPU-bound territory; the
// full-fidelity regeneration (calibrated surrogate latencies, bigger cuts)
// is `go run ./cmd/benchall`, which writes EXPERIMENTS.md.
package bytebrain_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bytebrain"
	"bytebrain/internal/experiments"
	"bytebrain/internal/logstore"
	"bytebrain/internal/segment"
)

func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:           1,
		Scale:          0.001,
		Threshold:      0.7,
		Timeout:        30 * time.Second,
		FastSurrogates: true,
	}
}

// runArtifact executes one experiment per iteration and reports its row
// count so the benchmark has a visible output dependency.
func runArtifact(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B)        { runArtifact(b, "table1") }
func BenchmarkTable2LogHubGA(b *testing.B)            { runArtifact(b, "table2") }
func BenchmarkTable3LogHub2GA(b *testing.B)           { runArtifact(b, "table3") }
func BenchmarkTable4ThresholdTemplates(b *testing.B)  { runArtifact(b, "table4") }
func BenchmarkTable5Industrial(b *testing.B)          { runArtifact(b, "table5") }
func BenchmarkFig2Scatter(b *testing.B)               { runArtifact(b, "fig2") }
func BenchmarkFig4DuplicationCDF(b *testing.B)        { runArtifact(b, "fig4") }
func BenchmarkFig6Throughput(b *testing.B)            { runArtifact(b, "fig6") }
func BenchmarkFig7Scaling(b *testing.B)               { runArtifact(b, "fig7") }
func BenchmarkFig8AccuracyAblation(b *testing.B)      { runArtifact(b, "fig8") }
func BenchmarkFig9EfficiencyAblation(b *testing.B)    { runArtifact(b, "fig9") }
func BenchmarkFig10DictionarySize(b *testing.B)       { runArtifact(b, "fig10") }
func BenchmarkFig11ThresholdSensitivity(b *testing.B) { runArtifact(b, "fig11") }
func BenchmarkFig12Parallelism(b *testing.B)          { runArtifact(b, "fig12") }

// BenchmarkTrain measures offline training throughput on the HDFS cut.
func BenchmarkTrain(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("HDFS", 1)
	if err != nil {
		b.Fatal(err)
	}
	parser := bytebrain.New(bytebrain.Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Train(ds.Lines); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.Lines))*float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// BenchmarkMatch measures online matching throughput against a trained
// model (the §4.8 hot path).
func BenchmarkMatch(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("HDFS", 1)
	if err != nil {
		b.Fatal(err)
	}
	parser := bytebrain.New(bytebrain.Options{Seed: 1})
	res, err := parser.Train(ds.Lines)
	if err != nil {
		b.Fatal(err)
	}
	matcher, err := parser.NewMatcher(res.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcher.Match(ds.Lines[i%len(ds.Lines)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// BenchmarkMatchLinear is the w/o-index matcher for comparison.
func BenchmarkMatchLinear(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("HDFS", 1)
	if err != nil {
		b.Fatal(err)
	}
	parser := bytebrain.New(bytebrain.Options{Seed: 1, LinearMatch: true})
	res, err := parser.Train(ds.Lines)
	if err != nil {
		b.Fatal(err)
	}
	matcher, err := parser.NewMatcher(res.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcher.Match(ds.Lines[i%len(ds.Lines)])
	}
}

// BenchmarkQueryRollup measures the query-time precision walk.
func BenchmarkQueryRollup(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("Mac", 1)
	if err != nil {
		b.Fatal(err)
	}
	parser := bytebrain.New(bytebrain.Options{Seed: 1})
	res, err := parser.Train(ds.Lines)
	if err != nil {
		b.Fatal(err)
	}
	leaves := res.Model.Leaves()
	if len(leaves) == 0 {
		b.Fatal("no leaves")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Model.TemplateAt(leaves[i%len(leaves)], 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceIngest measures the end-to-end service ingestion path
// (match + append + index).
func BenchmarkServiceIngest(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("Zookeeper", 1)
	if err != nil {
		b.Fatal(err)
	}
	svc := bytebrain.NewService(bytebrain.ServiceConfig{
		Parser:      bytebrain.Options{Seed: 1},
		TrainVolume: 1 << 30,
	})
	if err := svc.CreateTopic("bench"); err != nil {
		b.Fatal(err)
	}
	if err := svc.Ingest("bench", ds.Lines); err != nil {
		b.Fatal(err)
	}
	if err := svc.Train("bench"); err != nil {
		b.Fatal(err)
	}
	batch := ds.Lines[:500]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Ingest("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// BenchmarkConcurrentIngest measures the service ingestion path under
// goroutine contention on ONE topic. Matching runs lock-free against the
// atomically published snapshot and the whole batch lands in the store
// through one group-committed AppendBatch (one store lock and one WAL
// write per batch instead of one per record), so throughput should scale
// with goroutines instead of flat-lining on a topic mutex. The
// store=compacting variant runs with a real data dir so every batch also
// pays (one) WAL encode+write — the paper's cloud-ingest configuration.
func BenchmarkConcurrentIngest(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("Zookeeper", 1)
	if err != nil {
		b.Fatal(err)
	}
	stores := []struct {
		name string
		cfg  func(b *testing.B) bytebrain.ServiceConfig
	}{
		{"mem", func(b *testing.B) bytebrain.ServiceConfig {
			return bytebrain.ServiceConfig{
				Parser:      bytebrain.Options{Seed: 1},
				TrainVolume: 1 << 30,
			}
		}},
		{"compacting", func(b *testing.B) bytebrain.ServiceConfig {
			return bytebrain.ServiceConfig{
				Parser:       bytebrain.Options{Seed: 1},
				TrainVolume:  1 << 30,
				DataDir:      b.TempDir(),
				SegmentBytes: 16 << 20,
				SegmentCodec: "flate",
			}
		}},
	}
	for _, store := range stores {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("store=%s/goroutines=%d", store.name, workers), func(b *testing.B) {
				svc := bytebrain.NewService(store.cfg(b))
				defer svc.Close()
				if err := svc.CreateTopic("bench"); err != nil {
					b.Fatal(err)
				}
				if err := svc.Ingest("bench", ds.Lines); err != nil {
					b.Fatal(err)
				}
				if err := svc.Train("bench"); err != nil {
					b.Fatal(err)
				}
				batch := ds.Lines[:200]
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					iters := b.N / workers
					if w < b.N%workers {
						iters++
					}
					wg.Add(1)
					go func(iters int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							if err := svc.Ingest("bench", batch); err != nil {
								b.Error(err)
								return
							}
						}
					}(iters)
				}
				wg.Wait()
				b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "logs/s")
			})
		}
	}
}

// BenchmarkIngestAllocs locks in allocations per line on the steady-state
// ingestion path (tokenize → match → group-committed append) over a
// WAL-backed compacting store: one iteration ingests one 256-line batch
// on a single goroutine, the shape of one HTTP or TCP ingest call. The
// allocs/op number here is the regression surface the CI allocation smoke
// step budgets (see TestAllocBudget in alloc_test.go).
func BenchmarkIngestAllocs(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("Zookeeper", 1)
	if err != nil {
		b.Fatal(err)
	}
	svc := bytebrain.NewService(bytebrain.ServiceConfig{
		Parser:       bytebrain.Options{Seed: 1},
		TrainVolume:  1 << 30,
		DataDir:      b.TempDir(),
		SegmentBytes: 16 << 20,
		SegmentCodec: "flate",
	})
	defer svc.Close()
	if err := svc.CreateTopic("bench"); err != nil {
		b.Fatal(err)
	}
	if err := svc.Ingest("bench", ds.Lines); err != nil {
		b.Fatal(err)
	}
	if err := svc.Train("bench"); err != nil {
		b.Fatal(err)
	}
	batch := ds.Lines[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Ingest("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// benchBatches cuts recs into AppendBatch-shaped batches of up to size
// records, built outside the timed loops: the store benchmarks measure
// the store, not batch assembly.
func benchBatches(recs []segment.Record, size int) [][]logstore.BatchRecord {
	batches := make([][]logstore.BatchRecord, 0, (len(recs)+size-1)/size)
	for lo := 0; lo < len(recs); lo += size {
		hi := min(lo+size, len(recs))
		batch := make([]logstore.BatchRecord, hi-lo)
		for j, r := range recs[lo:hi] {
			batch[j] = logstore.BatchRecord{Raw: r.Raw, TemplateID: r.TemplateID}
		}
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkQueryPushdown measures grouped queries over sealed segments
// through the metadata pushdown path (Service.Query via
// Store.GroupedCounts), and asserts the segment block-read counter does
// not move — grouped queries are metadata-only.
func BenchmarkQueryPushdown(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("HDFS", 1)
	if err != nil {
		b.Fatal(err)
	}
	newSealedService := func(b *testing.B) *bytebrain.Service {
		svc := bytebrain.NewService(bytebrain.ServiceConfig{
			Parser:       bytebrain.Options{Seed: 1},
			TrainVolume:  1 << 30,
			SegmentBytes: 64 << 10,
			SegmentCodec: "flate",
		})
		if err := svc.CreateTopic("bench"); err != nil {
			b.Fatal(err)
		}
		if err := svc.Ingest("bench", ds.Lines); err != nil {
			b.Fatal(err)
		}
		if err := svc.Train("bench"); err != nil {
			b.Fatal(err)
		}
		// Re-ingest so records carry trained template IDs, then seal.
		if err := svc.Ingest("bench", ds.Lines); err != nil {
			b.Fatal(err)
		}
		if err := svc.Compact("bench"); err != nil {
			b.Fatal(err)
		}
		return svc
	}

	b.Run("pushdown", func(b *testing.B) {
		svc := newSealedService(b)
		defer svc.Close()
		before, err := svc.TopicStats("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := svc.Query("bench", 0.7, bytebrain.TimeRange{})
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		after, err := svc.TopicStats("bench")
		if err != nil {
			b.Fatal(err)
		}
		if after.SegmentBlockReads != before.SegmentBlockReads {
			b.Fatalf("pushdown query decompressed %d blocks (reads %d -> %d), want 0",
				after.SegmentBlockReads-before.SegmentBlockReads, before.SegmentBlockReads, after.SegmentBlockReads)
		}
	})
}

// BenchmarkTimeRangeQuery measures time-range pushdown over many sealed
// segments: 24 sealed blocks on a 10-minute cadence, each spanning the
// first minute of its window (records at +0m and +1m), queried with a
// range that straddles exactly one block. The narrow sub-benchmark
// asserts via the block-read counter that each query decompresses
// exactly that one block — O(blocks-in-range), not O(all-blocks) — and
// the aligned sub-benchmark that a range covering whole blocks
// decompresses nothing at all.
func BenchmarkTimeRangeQuery(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("HDFS", 1)
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 24
	base := time.Date(2026, 7, 26, 0, 0, 0, 0, time.UTC)
	// The fake clock is mutex-guarded: the per-topic background trainer
	// reads Now from its own goroutine.
	var clockMu sync.Mutex
	now := base
	setNow := func(t time.Time) {
		clockMu.Lock()
		now = t
		clockMu.Unlock()
	}
	newService := func(b *testing.B) *bytebrain.Service {
		b.Helper()
		setNow(base)
		svc := bytebrain.NewService(bytebrain.ServiceConfig{
			Parser:        bytebrain.Options{Seed: 1},
			TrainVolume:   1 << 30,
			TrainInterval: 365 * 24 * time.Hour, // clock jumps must not trigger training
			SegmentBytes:  1 << 30,              // seal only via Compact
			SegmentCodec:  "flate",
			Now: func() time.Time {
				clockMu.Lock()
				defer clockMu.Unlock()
				return now
			},
		})
		if err := svc.CreateTopic("bench"); err != nil {
			b.Fatal(err)
		}
		if err := svc.Ingest("bench", ds.Lines); err != nil {
			b.Fatal(err)
		}
		if err := svc.Train("bench"); err != nil {
			b.Fatal(err)
		}
		if err := svc.Compact("bench"); err != nil {
			b.Fatal(err)
		}
		// One sealed block per 10-minute window, each with records at
		// +0m and +1m so the block's metadata spans a real interval.
		per := len(ds.Lines) / blocks
		for blk := 0; blk < blocks; blk++ {
			batch := ds.Lines[blk*per : (blk+1)*per]
			start := base.Add(time.Duration(blk*10) * time.Minute)
			setNow(start)
			if err := svc.Ingest("bench", batch[:per/2]); err != nil {
				b.Fatal(err)
			}
			setNow(start.Add(time.Minute))
			if err := svc.Ingest("bench", batch[per/2:]); err != nil {
				b.Fatal(err)
			}
			if err := svc.Compact("bench"); err != nil {
				b.Fatal(err)
			}
		}
		stats, err := svc.TopicStats("bench")
		if err != nil {
			b.Fatal(err)
		}
		if stats.Segments < blocks {
			b.Fatalf("setup sealed %d segments, want >= %d", stats.Segments, blocks)
		}
		return svc
	}
	blockReads := func(b *testing.B, svc *bytebrain.Service) int64 {
		b.Helper()
		stats, err := svc.TopicStats("bench")
		if err != nil {
			b.Fatal(err)
		}
		return stats.SegmentBlockReads
	}
	// Covers block 12's first instant (+0m) but cuts off its +1m tail:
	// the range straddles that one block and overlaps no other, so its
	// records at +0m answer the query but the block cannot be taken
	// whole from metadata.
	narrow := bytebrain.TimeRange{
		From: base.Add(120 * time.Minute),
		To:   base.Add(120*time.Minute + 30*time.Second),
	}

	b.Run("narrow", func(b *testing.B) {
		svc := newService(b)
		defer svc.Close()
		before := blockReads(b, svc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := svc.Query("bench", 0.7, narrow)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows in range")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		// The efficiency contract: each query decompressed exactly the
		// one block the range straddles, out of 24+ sealed blocks.
		if delta := blockReads(b, svc) - before; delta != int64(b.N) {
			b.Fatalf("narrow range read %d blocks over %d queries, want exactly 1 per query", delta, b.N)
		}
	})

	b.Run("aligned", func(b *testing.B) {
		svc := newService(b)
		defer svc.Close()
		// Covers blocks 5..15 entirely (each spans [+0m, +1m] of its
		// 10-minute window): answered from metadata alone.
		aligned := bytebrain.TimeRange{
			From: base.Add(50 * time.Minute),
			To:   base.Add(151 * time.Minute),
		}
		before := blockReads(b, svc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := svc.Query("bench", 0.7, aligned)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows in range")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		if delta := blockReads(b, svc) - before; delta != 0 {
			b.Fatalf("block-aligned range read %d blocks, want 0", delta)
		}
	})
}

// segmentBenchRecords builds template-tagged records from a synthetic
// LogHub dataset for the segment-store benchmarks.
func segmentBenchRecords(b *testing.B, name string) []segment.Record {
	b.Helper()
	ds, err := bytebrain.GenerateLogHub(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	recs := make([]segment.Record, len(ds.Lines))
	for i, line := range ds.Lines {
		recs[i] = segment.Record{
			Offset:     int64(i),
			Time:       base.Add(time.Duration(i) * time.Millisecond),
			Raw:        line,
			TemplateID: uint64(ds.Truth[i]) + 1,
		}
	}
	return recs
}

// BenchmarkSegmentEncode measures sealing throughput and reports the
// compression ratio of the template-aware columnar encoding.
func BenchmarkSegmentEncode(b *testing.B) {
	recs := segmentBenchRecords(b, "HDFS")
	var raw int64
	for _, r := range recs {
		raw += int64(len(r.Raw))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var encoded int64
	for i := 0; i < b.N; i++ {
		blob, _, err := segment.Encode(recs, segment.CodecFlate)
		if err != nil {
			b.Fatal(err)
		}
		encoded = int64(len(blob))
	}
	b.ReportMetric(float64(raw)*float64(b.N)/b.Elapsed().Seconds()/1e6, "rawMB/s")
	b.ReportMetric(100*float64(encoded)/float64(raw), "compressed%")
}

// BenchmarkSegmentDecode measures the full payload decode (the cost a
// non-pushdownable query pays per block).
func BenchmarkSegmentDecode(b *testing.B) {
	recs := segmentBenchRecords(b, "HDFS")
	blob, _, err := segment.Encode(recs, segment.CodecFlate)
	if err != nil {
		b.Fatal(err)
	}
	r, err := segment.Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Records(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// BenchmarkCompactingIngest measures append throughput through the
// hybrid store while the background compactor seals segments. One op is
// one record, landed in 256-record batches.
func BenchmarkCompactingIngest(b *testing.B) {
	batches := benchBatches(segmentBenchRecords(b, "Zookeeper"), 256)
	base := time.Unix(1700000000, 0)
	store, err := logstore.OpenCompacting("bench", logstore.CompactConfig{
		SegmentBytes: 1 << 20, Codec: segment.CodecFlate,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for done, bi := 0, 0; done < b.N; bi++ {
		batch := batches[bi%len(batches)]
		if n := b.N - done; len(batch) > n {
			batch = batch[:n]
		}
		if _, err := store.AppendBatch(base, batch); err != nil {
			b.Fatal(err)
		}
		done += len(batch)
	}
	store.WaitIdle()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "logs/s")
}

// BenchmarkCompactingByTemplate measures grouped queries over sealed
// segments, where template pushdown skips non-matching blocks.
func BenchmarkCompactingByTemplate(b *testing.B) {
	recs := segmentBenchRecords(b, "HDFS")
	store, err := logstore.OpenCompacting("bench", logstore.CompactConfig{
		SegmentBytes: 64 << 10, Codec: segment.CodecFlate,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for _, batch := range benchBatches(recs, 256) {
		if _, err := store.AppendBatch(recs[0].Time, batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Seal(); err != nil {
		b.Fatal(err)
	}
	store.WaitIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := store.ByTemplateRange(logstore.TimeRange{}, uint64(1+i%5)); len(got) == 0 {
			b.Fatal("no offsets")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkModelSerialize measures model snapshot cost (internal-topic
// persistence).
func BenchmarkModelSerialize(b *testing.B) {
	ds, err := bytebrain.GenerateLogHub("Linux", 1)
	if err != nil {
		b.Fatal(err)
	}
	parser := bytebrain.New(bytebrain.Options{Seed: 1})
	res, err := parser.Train(ds.Lines)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := res.Model.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(data)), "model-bytes")
		}
	}
}
