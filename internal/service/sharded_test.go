package service

import (
	"sync"
	"testing"
	"time"
)

// TestShardedTopicEndToEnd drives a TopicShards topic through the full
// service surface: concurrent Ingest calls, training, grouped queries and
// the per-shard stats breakdown.
func TestShardedTopicEndToEnd(t *testing.T) {
	for name, cfg := range map[string]Config{
		"memory": func() Config {
			c := testConfig()
			c.TopicShards = 4
			return c
		}(),
		"segments": func() Config {
			c := testConfig()
			c.TopicShards = 4
			c.SegmentBytes = 8 << 10
			c.SegmentCodec = "flate"
			c.DataDir = t.TempDir()
			return c
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			s := New(cfg)
			defer s.Close()
			if err := s.CreateTopic("app"); err != nil {
				t.Fatal(err)
			}
			lines := genLines(800, 1)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				part := lines[g*200 : (g+1)*200]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.Ingest("app", part); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if err := s.Train("app"); err != nil {
				t.Fatal(err)
			}

			stats, err := s.TopicStats("app")
			if err != nil {
				t.Fatal(err)
			}
			if stats.Records != len(lines) {
				t.Fatalf("Records = %d, want %d", stats.Records, len(lines))
			}
			if stats.TopicShards != 4 || len(stats.Shards) != 4 {
				t.Fatalf("shard breakdown missing: %+v", stats)
			}
			total, busy := 0, 0
			for i, sh := range stats.Shards {
				if sh.Shard != i {
					t.Fatalf("shard stat %d has index %d", i, sh.Shard)
				}
				total += sh.Records
				if sh.Records > 0 {
					busy++
				}
			}
			if total != len(lines) {
				t.Fatalf("shard records sum %d, want %d", total, len(lines))
			}
			// Round-robin AppendBatch spreads every batch over every shard.
			if busy != 4 {
				t.Fatalf("only %d of 4 shards received records", busy)
			}

			// Grouped queries merge across shards and cover every record.
			rows, err := s.Query("app", 0.7, TimeRange{})
			if err != nil {
				t.Fatal(err)
			}
			covered := 0
			for _, r := range rows {
				covered += r.Count
				if len(r.SampleOffsets) == 0 {
					t.Fatalf("row %q has no samples", r.Template)
				}
			}
			if covered != len(lines) {
				t.Fatalf("query covered %d of %d records", covered, len(lines))
			}

			// Every layout seals, the in-memory one included.
			if err := s.Compact("app"); err != nil {
				t.Fatal(err)
			}
			stats, err = s.TopicStats("app")
			if err != nil {
				t.Fatal(err)
			}
			if stats.Segments < 4 || stats.SegmentRecords != len(lines) {
				t.Fatalf("after Compact: %d segments holding %d records, want at least 4 holding %d", stats.Segments, stats.SegmentRecords, len(lines))
			}
		})
	}
}

// TestShardedTopicPersistence restarts a sharded persistent service and
// checks records and model survive with the shard layout intact.
func TestShardedTopicPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.TopicShards = 3
	cfg.SegmentBytes = 4 << 10
	cfg.SegmentCodec = "flate"
	cfg.DataDir = dir

	s := New(cfg)
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	lines := genLines(600, 7)
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	defer s2.Close()
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	stats, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(lines) {
		t.Fatalf("recovered %d records, want %d", stats.Records, len(lines))
	}
	if stats.TopicShards != 3 {
		t.Fatalf("TopicShards = %d after restart", stats.TopicShards)
	}
	if stats.Templates == 0 {
		t.Fatal("model snapshot not recovered")
	}
	rows, err := s2.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, r := range rows {
		covered += r.Count
	}
	if covered != len(lines) {
		t.Fatalf("query covered %d of %d records after restart", covered, len(lines))
	}

	// Shrinking the shard count must refuse to open, not hide records.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	small := cfg
	small.TopicShards = 2
	s3 := New(small)
	defer s3.Close()
	if err := s3.CreateTopic("app"); err == nil {
		t.Fatal("CreateTopic with fewer shards than on disk must refuse")
	}
}

// TestShardedHotPathStress is TestHotPathStress over a sharded segment
// store: Ingest ∥ Query ∥ Train ∥ Compact across shards under -race.
func TestShardedHotPathStress(t *testing.T) {
	cfg := Config{
		Parser:        testConfig().Parser,
		TrainVolume:   400,
		TrainInterval: time.Hour,
		SegmentBytes:  16 << 10,
		SegmentCodec:  "flate",
		TopicShards:   4,
	}
	runHotPathStress(t, cfg)
}
