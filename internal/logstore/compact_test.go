package logstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/obs"
	"bytebrain/internal/segment"
)

// fillCompacting appends n records shaped like real parsed logs across 3
// templates.
func fillCompacting(t *testing.T, s *CompactingStore, n, start int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		raw := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
		tmpl := uint64(1 + i%3)
		off, err := appendOne(s, ts(i), raw, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset %d, want %d", off, i)
		}
	}
}

func TestCompactingStoreRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "memory"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillCompacting(t, s, 500, 0)
			s.WaitIdle()
			if err := s.SealError(); err != nil {
				t.Fatal(err)
			}
			st := s.SegmentStats()
			if st.Segments == 0 {
				t.Fatal("no segments sealed")
			}
			if st.SealedRecords+st.HotRecords != 500 {
				t.Fatalf("sealed %d + hot %d != 500", st.SealedRecords, st.HotRecords)
			}
			if st.CompressedBytes >= st.RawBytes {
				t.Fatalf("no compression: %d >= %d", st.CompressedBytes, st.RawBytes)
			}
			if s.Len() != 500 {
				t.Fatalf("Len = %d", s.Len())
			}

			// Every record readable across the sealed/hot boundary.
			for _, i := range []int64{0, 1, 250, 498, 499} {
				r, err := getOne(s, i)
				if err != nil {
					t.Fatalf("Get(%d): %v", i, err)
				}
				want := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
				if r.Raw != want || r.Offset != i || r.TemplateID != uint64(1+i%3) {
					t.Fatalf("Get(%d) = %+v", i, r)
				}
			}

			// Fetch a window spanning blocks.
			var window []int64
			for off := int64(100); off < 410; off++ {
				window = append(window, off)
			}
			recs, err := s.GetBatch(window)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if r.Offset != window[i] || r.Raw != fmt.Sprintf("worker %d finished job job-%d in 12ms", r.Offset%7, r.Offset) {
					t.Fatalf("window record %d = %+v", i, r)
				}
			}

			// Template query: exact counts and ascending offsets.
			offs := s.ByTemplateRange(TimeRange{}, 2)
			if len(offs) != 167 {
				t.Fatalf("ByTemplate(2) = %d offsets", len(offs))
			}
			for i := 1; i < len(offs); i++ {
				if offs[i] <= offs[i-1] {
					t.Fatal("ByTemplate offsets not ascending")
				}
			}
			counts := s.TemplateCounts(TimeRange{})
			if counts[1]+counts[2]+counts[3] != 500 {
				t.Fatalf("TemplateCounts = %v", counts)
			}

			// Token search across sealed + hot.
			hits := s.SearchRange("job-123", TimeRange{})
			if len(hits) != 1 || hits[0] != 123 {
				t.Fatalf("Search(job-123) = %v", hits)
			}

			// Time pushdown.
			if n := countSince(s, ts(400)); n != 100 {
				t.Fatalf("CountSince = %d, want 100", n)
			}
		})
	}
}

// TestCompactingTemplatePushdown asserts via block-read counters that
// grouped queries never decompress segments whose dictionary lacks the
// target template.
func TestCompactingTemplatePushdown(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three sealed segments with disjoint template IDs: 10, 20, 30.
	off := 0
	for seg := 0; seg < 3; seg++ {
		tmpl := uint64(10 * (seg + 1))
		for i := 0; i < 200; i++ {
			if _, err := appendOne(s, ts(off), fmt.Sprintf("segment %d line %d", seg, i), tmpl); err != nil {
				t.Fatal(err)
			}
			off++
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
	}
	if st := s.SegmentStats(); st.Segments != 3 || st.BlockReads != 0 {
		t.Fatalf("setup: %+v", st)
	}

	offs := s.ByTemplateRange(TimeRange{}, 20)
	if len(offs) != 200 || offs[0] != 200 {
		t.Fatalf("ByTemplate(20): %d offsets starting %d", len(offs), offs[0])
	}
	// Exactly one of three blocks decompressed.
	if st := s.SegmentStats(); st.BlockReads != 1 {
		t.Fatalf("ByTemplate read %d blocks, want 1", st.BlockReads)
	}

	// Absent template: zero additional reads.
	if offs := s.ByTemplateRange(TimeRange{}, 77); len(offs) != 0 {
		t.Fatalf("ByTemplate(77) = %v", offs)
	}
	if st := s.SegmentStats(); st.BlockReads != 1 {
		t.Fatalf("absent-template query read blocks: %d", st.BlockReads)
	}

	// TemplateCounts is metadata-only.
	if counts := s.TemplateCounts(TimeRange{}); counts[10] != 200 || counts[30] != 200 {
		t.Fatalf("TemplateCounts = %v", counts)
	}
	if st := s.SegmentStats(); st.BlockReads != 1 {
		t.Fatalf("TemplateCounts read blocks: %d", st.BlockReads)
	}
}

func TestCompactingReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 400, 0)
	s.WaitIdle()
	segsBefore := s.SegmentStats().Segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 400 {
		t.Fatalf("recovered %d records, want 400", s2.Len())
	}
	// The under-threshold hot tail resumes as the live hot block; a
	// restart must not mint an undersized segment from it.
	s2.WaitIdle()
	st := s2.SegmentStats()
	if st.Segments != segsBefore {
		t.Fatalf("restart sealed the hot tail: %d segments, want %d", st.Segments, segsBefore)
	}
	if st.HotRecords == 0 {
		t.Fatal("hot tail not resumed as live block")
	}
	r, err := getOne(s2, 399)
	if err != nil || r.Raw != "worker 0 finished job job-399 in 12ms" {
		t.Fatalf("Get(399) = %+v, %v", r, err)
	}
	// Appends continue with dense offsets.
	off, err := appendOne(s2, ts(400), "after restart", 9)
	if err != nil || off != 400 {
		t.Fatalf("Append after reopen: %d, %v", off, err)
	}
}

// TestCompactingCrashRecovery simulates a crash: the store is abandoned
// without Close (only a WAL Flush), then reopened. Sealed segments and
// flushed WAL records must all survive; a torn WAL tail must be dropped
// without failing recovery.
func TestCompactingCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 300, 0)
	s.WaitIdle()
	fillCompacting(t, s, 37, 300) // stays hot, in WAL only
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Stop the compactor goroutine only so the test
	// does not leak it; on a real crash the whole process dies.
	close(s.doneCh)
	s.sealWG.Wait()

	// Simulate a torn final append: extend the newest WAL with half a
	// record header.
	wals, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	last := wals[len(wals)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// And a torn segment write: an orphan tmp file recovery must remove.
	orphan := filepath.Join(dir, sealedPrefix+"999999"+sealedSuffix+segment.TmpSuffix)
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 2048, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 337 {
		t.Fatalf("recovered %d records, want 337", s2.Len())
	}
	for _, i := range []int64{0, 299, 300, 336} {
		r, err := getOne(s2, i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		want := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
		if r.Raw != want || r.TemplateID != uint64(1+i%3) {
			t.Fatalf("Get(%d) = %+v", i, r)
		}
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan tmp segment not removed")
	}
	// Recovered pending blocks re-seal; the under-threshold newest WAL
	// block resumes hot rather than minting an undersized segment.
	s2.WaitIdle()
	if err := s2.SealError(); err != nil {
		t.Fatal(err)
	}
	st := s2.SegmentStats()
	if st.SealedRecords+st.HotRecords != 337 || st.Segments == 0 || st.HotRecords == 0 {
		t.Fatalf("after recovery re-seal: %+v", st)
	}
	// Re-sealed blocks delete their recovered WAL files; only the new
	// (empty) hot block's WAL remains.
	wals, err = filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 1 {
		t.Fatalf("WALs left after recovery re-seal: %v", wals)
	}
	if n := countSince(s2, ts(330)); n != 7 {
		t.Fatalf("CountSince after recovery = %d, want 7", n)
	}
}

// TestCompactingConcurrent hammers appends, queries and seals in
// parallel; run under -race this exercises the seal/query handoff.
func TestCompactingConcurrent(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 4096, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			if _, err := appendOne(s, ts(i), fmt.Sprintf("req %d handled path=/api/%d", i, i%50), uint64(1+i%5)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		s.ByTemplateRange(TimeRange{}, 3)
		s.TemplateCounts(TimeRange{})
		s.SearchRange("handled", TimeRange{})
		s.Len()
		s.Bytes()
		select {
		case <-done:
			s.WaitIdle()
			if s.Len() != 3000 {
				t.Fatalf("Len = %d, want 3000", s.Len())
			}
			if got := len(s.ByTemplateRange(TimeRange{}, 2)); got != 600 {
				t.Fatalf("ByTemplate(2) = %d, want 600", got)
			}
			return
		default:
		}
	}
}

// TestCompactingBadSegmentFallsBackToWAL: a crash can leave a corrupt
// sealed segment next to its not-yet-deleted WAL; recovery must prefer
// the WAL over failing (and must not delete it first).
func TestCompactingBadSegmentFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 100, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(s.doneCh) // crash
	s.sealWG.Wait()
	// The crash "happened" after the segment file was renamed but it
	// was torn at the device level: fabricate a corrupt seg-000000.
	if err := os.WriteFile(filepath.Join(dir, sealedPrefix+"000000"+sealedSuffix), []byte("BBSGcorrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("recovered %d records, want 100 from WAL", s2.Len())
	}
	if r, err := getOne(s2, 42); err != nil || r.Raw != "worker 0 finished job job-42 in 12ms" {
		t.Fatalf("Get(42) = %+v, %v", r, err)
	}
	if _, err := os.Stat(filepath.Join(dir, sealedPrefix+"000000"+sealedSuffix+".bad")); err != nil {
		t.Fatalf("corrupt segment not moved aside: %v", err)
	}
}

// TestSegmentReadErrorsCounted: a sealed block whose payload fails to
// decode is skipped by the query paths, each visit is counted in
// Metrics.SegmentReadErrors, and the other blocks' offsets still come
// back.
func TestSegmentReadErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	cfg := CompactConfig{Dir: dir, SegmentBytes: 1 << 30, Codec: segment.CodecFlate}
	s, err := OpenCompacting("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three sealed blocks of 100 records: one template, one shared token.
	for off := 0; off < 300; off++ {
		if _, err := appendOne(s, ts(off), fmt.Sprintf("session %d opened", off), 7); err != nil {
			t.Fatal(err)
		}
		if off%100 == 99 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			s.WaitIdle()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite the middle block's payload with 0xFF bytes (a reserved
	// DEFLATE block type, so inflating fails at once) and recompute the
	// checksum: Open checks only the CRC and metadata, so the block still
	// loads and fails only when a query decodes it.
	path := filepath.Join(dir, sealedPrefix+"000001"+sealedSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(data) - 4
	payLen := int(binary.LittleEndian.Uint32(data[60:64]))
	for i := end - payLen; i < end; i++ {
		data[i] = 0xFF
	}
	binary.LittleEndian.PutUint32(data[end:], crc32.ChecksumIEEE(data[:end]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	readErrs := obs.NewRegistry().Counter("segment_read_errors_total", "t").With()
	cfg.Opts.Metrics = &Metrics{SegmentReadErrors: readErrs}
	s2, err := OpenCompacting("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.SegmentStats(); st.Segments != 3 {
		t.Fatalf("reopened with %d segments, want 3", st.Segments)
	}
	var want []int64
	for off := int64(0); off < 300; off++ {
		if off < 100 || off >= 200 {
			want = append(want, off)
		}
	}
	if got := s2.SearchRange("session", TimeRange{}); !slices.Equal(got, want) {
		t.Fatalf("SearchRange returned %d offsets, want the %d outside the bad block", len(got), len(want))
	}
	if n := readErrs.Value(); n != 1 {
		t.Fatalf("after SearchRange: %d read errors, want 1", n)
	}
	if got := s2.ByTemplateRange(TimeRange{}, 7); !slices.Equal(got, want) {
		t.Fatalf("ByTemplateRange returned %d offsets, want the %d outside the bad block", len(got), len(want))
	}
	if n := readErrs.Value(); n != 2 {
		t.Fatalf("after ByTemplateRange: %d read errors, want 2", n)
	}
}

// writeLegacyRecordFile fabricates what the retired plain disk store
// (DiskTopic) left behind: a segment-000000.log holding one
// length-prefixed record.
func writeLegacyRecordFile(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const raw = "a record from the retired disk store"
	var hdr [recordOverhead]byte
	putRecordHeader(hdr[:], ts(0), 1, len(raw))
	if err := os.WriteFile(filepath.Join(dir, "segment-000000.log"), append(hdr[:], raw...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDiskTopicDirRefused: a directory persisted by a retired
// layout — the plain disk store's record files, or the sharded store's
// shard-NNN subdirectories — must be refused by every way of opening it,
// never silently opened empty, hiding its records behind fresh offsets.
// The message names what it found, points at a fresh data dir, and must
// not advise a configuration that no longer exists.
func TestLegacyDiskTopicDirRefused(t *testing.T) {
	cases := map[string]struct {
		open func(dir string) (Store, error)
		want string // the entry the refusal must name
	}{
		"OpenCompacting": {func(dir string) (Store, error) {
			writeLegacyRecordFile(t, dir)
			return OpenCompacting("t", CompactConfig{Dir: dir})
		}, "segment-000000.log"},
		"OpenCompacting/segment-bytes": {func(dir string) (Store, error) {
			writeLegacyRecordFile(t, dir)
			return OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 20, Codec: segment.CodecFlate})
		}, "segment-000000.log"},
		// A sharded topic kept its records in shard-NNN subdirectories.
		"OpenCompacting/shard-dir": {func(dir string) (Store, error) {
			writeLegacyRecordFile(t, filepath.Join(dir, "shard-001"))
			return OpenCompacting("t", CompactConfig{Dir: dir})
		}, "shard-001"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := tc.open(t.TempDir())
			if err == nil {
				s.Close()
				t.Fatal("a directory of a retired layout was opened instead of refused")
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.want) {
				t.Errorf("refusal does not name the offending entry %s: %v", tc.want, err)
			}
			if !strings.Contains(msg, "fresh data dir") {
				t.Errorf("refusal does not point at a fresh data dir: %v", err)
			}
			for _, stale := range []string{"unset SegmentBytes", "shard count"} {
				if strings.Contains(msg, stale) {
					t.Errorf("refusal advises a configuration that no longer exists (%s): %v", stale, err)
				}
			}
		})
	}
}

func TestCompactingAppendAfterClose(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(s, time.Now(), "x", 1); err == nil {
		t.Fatal("Append after Close should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
}

func TestCompactingGroupedCounts(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 30, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Two sealed segments plus a hot tail, all sharing templates 1..3.
	fillCompacting(t, s, 300, 0)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	fillCompacting(t, s, 300, 300)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	fillCompacting(t, s, 90, 600)
	if st := s.SegmentStats(); st.Segments != 2 || st.BlockReads != 0 {
		t.Fatalf("setup: %+v", st)
	}

	groups := s.GroupedCounts(5, TimeRange{})
	if len(groups) != 3 {
		t.Fatalf("GroupedCounts = %d templates, want 3", len(groups))
	}
	total := 0
	for id, g := range groups {
		total += g.Count
		if g.Count != 230 { // 690 records over 3 round-robin templates
			t.Errorf("template %d count %d, want 230", id, g.Count)
		}
		if len(g.Samples) != 5 {
			t.Errorf("template %d has %d samples, want 5", id, len(g.Samples))
		}
		for i := 1; i < len(g.Samples); i++ {
			if g.Samples[i] <= g.Samples[i-1] {
				t.Errorf("template %d samples not ascending: %v", id, g.Samples)
			}
		}
	}
	if total != 690 {
		t.Fatalf("grouped counts cover %d records, want 690", total)
	}
	// fillCompacting assigns template 1+i%3, so template 1's earliest
	// records sit at offsets 0, 3, 6, ... — all inside the first sealed
	// segment, proving sealed-metadata samples surface ahead of hot ones.
	if g := groups[1]; len(g.Samples) > 0 && g.Samples[0] != 0 {
		t.Errorf("template 1 first sample %d, want 0", g.Samples[0])
	}

	// The whole grouped query ran off metadata: nothing was decompressed.
	if st := s.SegmentStats(); st.BlockReads != 0 {
		t.Fatalf("GroupedCounts paid %d block reads, want 0", st.BlockReads)
	}

	// Agreement with the scan-side truth.
	counts := s.TemplateCounts(TimeRange{})
	for id, g := range groups {
		if counts[id] != g.Count {
			t.Errorf("template %d grouped count %d != TemplateCounts %d", id, g.Count, counts[id])
		}
	}
}
