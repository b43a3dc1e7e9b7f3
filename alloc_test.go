// Allocation-regression budgets for the ingestion hot path and for
// training. The CI allocation smoke step runs these with
// BYTEBRAIN_ALLOC_BUDGET=1; they measure the steady-state paths via
// testing.Benchmark and fail when allocs/op (heap bytes per line, for
// training) exceeds the checked-in budgets below. The budgets carry ~2x
// headroom over currently measured values, so they catch a regression to
// per-line allocation (the pre-group-commit shape) or to per-pass
// clustering statistics without flaking on map-growth noise.
package bytebrain_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"bytebrain"
	"bytebrain/internal/datagen"
	"bytebrain/internal/netingest"
	"bytebrain/internal/obs"
	"bytebrain/internal/segment"
)

const (
	// allocBudgetPerIngestedLine bounds allocations per line on the
	// steady-state tokenize→match→append path (currently 0.00–0.03: line
	// cache hits, and amortized growth of the hot block's record slice
	// and template index; the per-record baseline before group commit
	// measured ~8.3, and a per-line allocation would show as ≥1).
	allocBudgetPerIngestedLine = 0.5
	// allocBudgetPerMatch bounds allocations per uncached Matcher.Match
	// call (currently 1–2: the token slice, plus the masked line when a
	// variable was replaced; the template text is cached in the index).
	allocBudgetPerMatch = 3
	// allocBudgetTrainBytesPerLine bounds heap bytes per line of one
	// Train over the 9262-line LogHub-2.0 BGL cut (scale 0.002, seed 1):
	// currently ~660 B/line, most of it preprocessing and dedup. The
	// clusterer that rebuilt per-position token maps after every pass
	// measured ~5000.
	allocBudgetTrainBytesPerLine = 1300
	// allocBudgetSealPerRecord bounds allocations per record of one
	// segment.Encode of a 4 MiB HDFS block (currently two per block, the
	// blob and its bloom: encoder scratch and the flate writer are
	// cached).
	// The encoder that split every line three times and kept four
	// per-template maps measured ~4.0.
	allocBudgetSealPerRecord = 0.05
	// allocBudgetSealBytesPerRecord bounds heap bytes per record of the
	// same Encode run right after a garbage collection, the way a service
	// seals (currently ~13: the blob and its bloom). Scratch kept in a
	// sync.Pool, which a collection empties, measured ~313.
	allocBudgetSealBytesPerRecord = 40
)

func TestAllocBudget(t *testing.T) {
	if os.Getenv("BYTEBRAIN_ALLOC_BUDGET") == "" {
		t.Skip("set BYTEBRAIN_ALLOC_BUDGET=1 to enforce allocation budgets (CI smoke step)")
	}
	ds, err := bytebrain.GenerateLogHub("Zookeeper", 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("ingest", func(t *testing.T) {
		svc := bytebrain.NewService(bytebrain.ServiceConfig{
			Parser:       bytebrain.Options{Seed: 1},
			TrainVolume:  1 << 30,
			DataDir:      t.TempDir(),
			SegmentBytes: 16 << 20,
			SegmentCodec: "flate",
		})
		defer svc.Close()
		if err := svc.CreateTopic("bench"); err != nil {
			t.Fatal(err)
		}
		if err := svc.Ingest("bench", ds.Lines); err != nil {
			t.Fatal(err)
		}
		if err := svc.Train("bench"); err != nil {
			t.Fatal(err)
		}
		batch := ds.Lines[:256]
		// Warm the steady state (line cache, index capacity) before
		// measuring, exactly like a long-running ingester.
		for i := 0; i < 20; i++ {
			if err := svc.Ingest("bench", batch); err != nil {
				t.Fatal(err)
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := svc.Ingest("bench", batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		perLine := float64(res.AllocsPerOp()) / float64(len(batch))
		t.Logf("ingest: %d allocs/op over %d-line batches = %.2f allocs/line (budget %.2f)",
			res.AllocsPerOp(), len(batch), perLine, allocBudgetPerIngestedLine)
		if perLine > allocBudgetPerIngestedLine {
			t.Fatalf("steady-state ingest allocations regressed: %.2f allocs/line exceeds budget %.2f",
				perLine, allocBudgetPerIngestedLine)
		}
	})

	// The telemetry layer must be free on the hot path: the full
	// per-batch instrumentation sequence (two stage timings, two
	// histogram observations, four counter updates) stays within one
	// allocation per 256-line batch — measured here at zero.
	t.Run("instrumentation", func(t *testing.T) {
		reg := obs.NewRegistry()
		lines := reg.Counter("lines_total", "t", "topic").With("bench")
		batches := reg.Counter("batches_total", "t", "topic").With("bench")
		hits := reg.Counter("hits_total", "t", "topic").With("bench")
		misses := reg.Counter("misses_total", "t", "topic").With("bench")
		match := reg.Histogram("match_seconds", "t", obs.LatencyBuckets, "topic").With("bench")
		appendH := reg.Histogram("append_seconds", "t", obs.LatencyBuckets, "topic").With("bench")
		perBatch := testing.AllocsPerRun(1000, func() {
			start := time.Now()
			hits.Add(200)
			misses.Add(56)
			mid := time.Now()
			match.ObserveDuration(mid.Sub(start))
			appendH.ObserveDuration(time.Since(mid))
			lines.Add(256)
			batches.Inc()
		})
		t.Logf("instrumentation: %.2f allocs per 256-line batch (budget 1)", perBatch)
		if perBatch > 1 {
			t.Fatalf("per-batch instrumentation allocates: %.2f allocs/batch exceeds budget 1", perBatch)
		}
	})

	// The framed ingest protocol promises a zero-allocation decode
	// loop: header parse plus body decode into a reused Frame touch no
	// heap at all (the single permitted copy happens later, when the
	// worker moves the line block out of the pooled read buffer). This
	// budget is exact — any regression to per-frame or per-line
	// allocation in Decode fails here.
	t.Run("framedecode", func(t *testing.T) {
		enc, err := netingest.AppendFrame(nil, 1, "bench", ds.Lines[:32])
		if err != nil {
			t.Fatal(err)
		}
		body := enc[netingest.HeaderSize:]
		var f netingest.Frame
		perFrame := testing.AllocsPerRun(1000, func() {
			h := netingest.ParseHeader(enc)
			if err := f.Decode(h, body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("frame decode: %.2f allocs per 32-line frame (budget 0)", perFrame)
		if perFrame > 0 {
			t.Fatalf("frame decode allocates: %.2f allocs/frame exceeds budget 0", perFrame)
		}
	})

	// Variable masking runs on every uncached line: a line without a
	// variable must come back as is, and one with variables costs
	// exactly the masked copy. Exact, like the frame-decode budget.
	t.Run("vars", func(t *testing.T) {
		r := bytebrain.DefaultVariableRules()
		for _, tc := range []struct {
			line   string
			budget float64
		}{
			{"jk2_init() Can't find child in scoreboard, workerEnv in error state", 0},
			{"081109 203615 148 INFO dfs.DataNode$PacketResponder: PacketResponder 1 for block blk_38865049064139660 terminating", 0},
			{"081109 20:35:18 INFO dfs.DataNode$DataXceiver: Receiving block blk_-1608999687919862906 src: /10.250.19.102:54106 dest: /10.250.19.102:50010", 1},
			{"- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected at 0x0b85eee0", 1},
		} {
			masked := r.ReplaceTokenSafe(tc.line)
			if (masked != tc.line) != (tc.budget > 0) {
				t.Fatalf("fixture drifted: %q masks to %q", tc.line, masked)
			}
			got := testing.AllocsPerRun(1000, func() { r.ReplaceTokenSafe(tc.line) })
			t.Logf("vars: %.2f allocs (budget %.0f) for %q", got, tc.budget, tc.line)
			if got > tc.budget {
				t.Fatalf("variable masking allocates: %.2f allocs/line exceeds budget %.0f on %q", got, tc.budget, tc.line)
			}
		}
	})

	t.Run("train", func(t *testing.T) {
		bgl, err := bytebrain.GenerateLogHub2("BGL", 0.002, 1)
		if err != nil {
			t.Fatal(err)
		}
		parser := bytebrain.New(bytebrain.Options{Seed: 1})
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parser.Train(bgl.Lines); err != nil {
					b.Fatal(err)
				}
			}
		})
		perLine := float64(res.AllocedBytesPerOp()) / float64(len(bgl.Lines))
		t.Logf("train: %d B/op over %d lines = %.0f B/line (budget %d)",
			res.AllocedBytesPerOp(), len(bgl.Lines), perLine, allocBudgetTrainBytesPerLine)
		if perLine > allocBudgetTrainBytesPerLine {
			t.Fatalf("training allocations regressed: %.0f B/line exceeds budget %d",
				perLine, allocBudgetTrainBytesPerLine)
		}
	})

	t.Run("match", func(t *testing.T) {
		parser := bytebrain.New(bytebrain.Options{Seed: 1})
		res, err := parser.Train(ds.Lines)
		if err != nil {
			t.Fatal(err)
		}
		matcher, err := parser.NewMatcher(res.Model)
		if err != nil {
			t.Fatal(err)
		}
		bres := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matcher.Match(ds.Lines[i%len(ds.Lines)])
			}
		})
		t.Logf("match: %d allocs/op (budget %d)", bres.AllocsPerOp(), allocBudgetPerMatch)
		if bres.AllocsPerOp() > allocBudgetPerMatch {
			t.Fatalf("match allocations regressed: %d allocs/op exceeds budget %d",
				bres.AllocsPerOp(), allocBudgetPerMatch)
		}
	})
	t.Run("seal", func(t *testing.T) {
		hdfs, err := datagen.LogHub2("HDFS", 80000/float64(datagen.FullLogHub2Lines("HDFS")), 1)
		if err != nil {
			t.Fatal(err)
		}
		base := time.Unix(1700000000, 0)
		var recs []segment.Record
		for i, raw := 0, 0; raw+len(hdfs.Lines[i]) <= 4<<20; i++ {
			raw += len(hdfs.Lines[i])
			recs = append(recs, segment.Record{
				Offset:     int64(i),
				Time:       base.Add(time.Duration(i) * time.Millisecond),
				Raw:        hdfs.Lines[i],
				TemplateID: uint64(hdfs.Truth[i]) + 1,
			})
		}
		perBlock := testing.AllocsPerRun(5, func() {
			if _, _, err := segment.Encode(recs, segment.CodecFlate); err != nil {
				t.Fatal(err)
			}
		})
		perRecord := perBlock / float64(len(recs))
		t.Logf("seal: %.0f allocs per %d-record 4 MiB block = %.4f allocs/record (budget %.2f)",
			perBlock, len(recs), perRecord, allocBudgetSealPerRecord)
		if perRecord > allocBudgetSealPerRecord {
			t.Fatalf("seal allocations regressed: %.4f allocs/record exceeds budget %.2f",
				perRecord, allocBudgetSealPerRecord)
		}

		// Back-to-back calls above cannot see scratch that a collection
		// drops; collect before every Encode and count heap bytes.
		const runs = 5
		var before, after runtime.MemStats
		var bytes uint64
		for range runs {
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, _, err := segment.Encode(recs, segment.CodecFlate); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		perRecordBytes := float64(bytes) / runs / float64(len(recs))
		t.Logf("seal after GC: %.1f B/record (budget %d)", perRecordBytes, allocBudgetSealBytesPerRecord)
		if perRecordBytes > allocBudgetSealBytesPerRecord {
			t.Fatalf("seal scratch does not survive GC: %.1f B/record exceeds budget %d",
				perRecordBytes, allocBudgetSealBytesPerRecord)
		}
	})
}
