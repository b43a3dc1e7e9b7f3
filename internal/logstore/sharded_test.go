package logstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bytebrain/internal/segment"
)

func shardedConfigs(t *testing.T) map[string]ShardConfig {
	return map[string]ShardConfig{
		"memory":          {Shards: 4},
		"sharded-default": {Shards: 4, Dir: t.TempDir()}, // DataDir alone: compacting shards at the default seal size
		"compacting":      {Shards: 4, Dir: t.TempDir(), SegmentBytes: 2048, Codec: segment.CodecFlate},
	}
}

// fillSharded appends n records one per appendShard call (record i goes
// to shard i%Shards) and returns the global offsets.
func fillSharded(t *testing.T, s *ShardedStore, n, start int) []int64 {
	t.Helper()
	offs := make([]int64, 0, n)
	for i := start; i < start+n; i++ {
		raw := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
		shard := i % s.Shards()
		off, err := s.appendShard(shard, ts(i), []BatchRecord{{Raw: raw, TemplateID: uint64(1 + i%3)}})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(off >> shardShift); got != shard {
			t.Fatalf("offset %d routed to shard %d, want %d", off, got, shard)
		}
		offs = append(offs, off)
	}
	return offs
}

func TestShardedRoundTrip(t *testing.T) {
	for name, cfg := range shardedConfigs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := OpenSharded("t", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			offs := fillSharded(t, s, 500, 0)
			if s.Len() != 500 {
				t.Fatalf("Len = %d", s.Len())
			}
			// The durability checkpoint fans out across every shard kind
			// (no-op for memory topics, WAL/segment flush otherwise).
			if err := s.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}

			// Every record readable at its namespaced offset.
			for i, off := range offs {
				r, err := getOne(s, off)
				if err != nil {
					t.Fatalf("Get(%d): %v", off, err)
				}
				want := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
				if r.Raw != want || r.Offset != off || r.TemplateID != uint64(1+i%3) {
					t.Fatalf("Get(%d) = %+v", off, r)
				}
			}
			if _, err := getOne(s, int64(cfg.Shards)<<shardShift); err == nil {
				t.Fatal("Get outside the shard namespace must error")
			}

			// Scan covers everything exactly once, shard-major ascending.
			var seen []int64
			s.Scan(0, -1, TimeRange{}, func(r Record) bool {
				seen = append(seen, r.Offset)
				return true
			})
			if len(seen) != 500 {
				t.Fatalf("Scan saw %d records", len(seen))
			}
			for i := 1; i < len(seen); i++ {
				if seen[i] <= seen[i-1] {
					t.Fatalf("Scan offsets not ascending: %d after %d", seen[i], seen[i-1])
				}
			}
			// A bounded window: everything in shard 1's namespace.
			var inShard1 int
			s.Scan(1<<shardShift, 2<<shardShift, TimeRange{}, func(r Record) bool {
				if r.Offset>>shardShift != 1 {
					t.Fatalf("window scan leaked offset %d", r.Offset)
				}
				inShard1++
				return true
			})
			if inShard1 != 125 {
				t.Fatalf("shard-1 window scan saw %d records, want 125", inShard1)
			}

			// Template queries merge across shards.
			byTmpl := s.ByTemplateRange(TimeRange{}, 2)
			if len(byTmpl) != 167 {
				t.Fatalf("ByTemplate(2) = %d offsets", len(byTmpl))
			}
			for i := 1; i < len(byTmpl); i++ {
				if byTmpl[i] <= byTmpl[i-1] {
					t.Fatal("ByTemplate offsets not ascending")
				}
			}
			counts := s.TemplateCounts(TimeRange{})
			if counts[1]+counts[2]+counts[3] != 500 {
				t.Fatalf("TemplateCounts = %v", counts)
			}
			groups := s.GroupedCounts(5, TimeRange{})
			total := 0
			for id, g := range groups {
				total += g.Count
				if g.Count != counts[id] {
					t.Errorf("template %d grouped %d != counted %d", id, g.Count, counts[id])
				}
				if len(g.Samples) != 5 {
					t.Errorf("template %d has %d samples", id, len(g.Samples))
				}
			}
			if total != 500 {
				t.Fatalf("grouped counts cover %d records", total)
			}

			// Token search and time counts.
			hits := s.SearchRange("job-123", TimeRange{})
			if len(hits) != 1 {
				t.Fatalf("Search(job-123) = %v", hits)
			}
			if r, _ := getOne(s, hits[0]); !strings.Contains(r.Raw, "job-123") {
				t.Fatalf("Search hit resolves to %q", r.Raw)
			}
			if n := countSince(s, ts(400)); n != 100 {
				t.Fatalf("CountSince = %d, want 100", n)
			}

			// Un-pinned appends round-robin across shards too.
			for i := 0; i < cfg.Shards; i++ {
				if _, err := appendOne(s, ts(600+i), "round robin", 7); err != nil {
					t.Fatal(err)
				}
			}
			for i, st := range s.ShardStats() {
				if st.Shard != i || st.Records != 126 {
					t.Fatalf("ShardStats[%d] = %+v, want 126 records", i, st)
				}
			}
		})
	}
}

func TestShardedCompactionFanOut(t *testing.T) {
	s, err := OpenSharded("t", ShardConfig{Shards: 3, Dir: t.TempDir(), SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillSharded(t, s, 300, 0)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if err := s.SealError(); err != nil {
		t.Fatal(err)
	}
	st := s.SegmentStats()
	if st.Segments != 3 || st.SealedRecords != 300 {
		t.Fatalf("SegmentStats = %+v, want 3 segments / 300 sealed", st)
	}
	for _, sh := range s.ShardStats() {
		if sh.Segments != 1 || sh.SealedRecords != 100 {
			t.Fatalf("ShardStats = %+v", sh)
		}
	}
	// Without a Dir the shards seal the same way, into in-memory blobs.
	mem, err := OpenSharded("m", ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	fillSharded(t, mem, 200, 0)
	if err := mem.Seal(); err != nil {
		t.Fatalf("Seal on in-memory shards = %v", err)
	}
	mem.WaitIdle()
	if err := mem.SealError(); err != nil {
		t.Fatal(err)
	}
	if st := mem.SegmentStats(); st.Segments != 2 || st.SealedRecords != 200 {
		t.Fatalf("in-memory SegmentStats = %+v, want 2 segments / 200 sealed", st)
	}
}

// TestShardedRecovery restarts a persistent sharded store and checks that
// every record keeps its namespaced offset, then verifies the layout
// guards that protect against shard-count changes.
func TestShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardConfig{Shards: 3, Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate}
	s, err := OpenSharded("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	offs := fillSharded(t, s, 400, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 400 {
		t.Fatalf("recovered %d records, want 400", s2.Len())
	}
	for i, off := range offs {
		r, err := getOne(s2, off)
		if err != nil {
			t.Fatalf("Get(%d): %v", off, err)
		}
		want := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
		if r.Raw != want {
			t.Fatalf("Get(%d) = %q, want %q", off, r.Raw, want)
		}
	}
	// Appends continue into the right shards after recovery.
	off, err := s2.appendShard(2, ts(400), []BatchRecord{{Raw: "after restart", TemplateID: 9}})
	if err != nil || off>>shardShift != 2 {
		t.Fatalf("AppendShard after reopen: %d, %v", off, err)
	}

	// Shrinking the shard count would hide shard-002's records: refuse.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded("t", ShardConfig{Shards: 2, Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate}); err == nil {
		t.Fatal("open with fewer shards than on disk must refuse")
	}
	// Growing is safe (new shards start empty).
	s3, err := OpenSharded("t", ShardConfig{Shards: 5, Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 401 {
		t.Fatalf("after growing shards: Len = %d, want 401", s3.Len())
	}
	s3.Close()
}

// TestShardedLayoutMismatchRefused: sharded and unsharded layouts must
// refuse each other's directories instead of hiding records.
func TestShardedLayoutMismatchRefused(t *testing.T) {
	// Unsharded compacting dir opened sharded.
	dir := t.TempDir()
	cs, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, cs, 10, 0)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded("t", ShardConfig{Shards: 2, Dir: dir, SegmentBytes: 1 << 30}); err == nil {
		t.Fatal("OpenSharded on an unsharded dir must refuse")
	}

	// Sharded dir opened unsharded.
	sdir := t.TempDir()
	ss, err := OpenSharded("t", ShardConfig{Shards: 2, Dir: sdir, SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(t, ss, 10, 0)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCompacting("t", CompactConfig{Dir: sdir, SegmentBytes: 1 << 30}); err == nil {
		t.Fatal("OpenCompacting on a sharded dir must refuse")
	}
}

// TestShardedStress interleaves pinned appends, queries, seals and the
// final Close across shards; under -race this is the tentpole's memory-
// safety gate (Ingest ∥ Query ∥ Seal ∥ Close).
func TestShardedStress(t *testing.T) {
	s, err := OpenSharded("t", ShardConfig{Shards: 4, SegmentBytes: 8 << 10, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	const perShard = 1500
	var appendWG sync.WaitGroup
	for shard := 0; shard < s.Shards(); shard++ {
		appendWG.Add(1)
		go func(shard int) {
			defer appendWG.Done()
			for i := 0; i < perShard; i++ {
				raw := fmt.Sprintf("shard %d req %d handled path=/api/%d", shard, i, i%50)
				if _, err := s.appendShard(shard, ts(shard*perShard+i), []BatchRecord{{Raw: raw, TemplateID: uint64(1 + i%5)}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(shard)
	}
	done := make(chan struct{})
	go func() { appendWG.Wait(); close(done) }()
	sealerDone := make(chan struct{})
	go func() { // sealer
		defer close(sealerDone)
		for {
			select {
			case <-done:
				return
			default:
				if err := s.Seal(); err != nil {
					t.Errorf("seal: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for { // querier (main goroutine)
		s.Len()
		s.Bytes()
		s.ByTemplateRange(TimeRange{}, 3)
		s.TemplateCounts(TimeRange{})
		s.GroupedCounts(5, TimeRange{})
		s.SearchRange("handled", TimeRange{})
		countSince(s, ts(10))
		s.ShardStats()
		select {
		case <-done:
			<-sealerDone
			s.WaitIdle()
			if err := s.SealError(); err != nil {
				t.Fatal(err)
			}
			if got := s.Len(); got != 4*perShard {
				t.Fatalf("Len = %d, want %d", got, 4*perShard)
			}
			if got := len(s.ByTemplateRange(TimeRange{}, 2)); got != 4*perShard/5 {
				t.Fatalf("ByTemplate(2) = %d, want %d", got, 4*perShard/5)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Appends after Close fail instead of panicking.
			if _, err := s.appendShard(0, ts(0), []BatchRecord{{Raw: "late", TemplateID: 1}}); err == nil {
				t.Fatal("AppendShard after Close must fail")
			}
			return
		default:
		}
	}
}
