package logstore

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"bytebrain/internal/segment"
)

func tr(from, to int) TimeRange { return TimeRange{From: ts(from), To: ts(to)} }

func TestTimeRangeSemantics(t *testing.T) {
	zero := TimeRange{}
	if !zero.IsZero() || zero.Empty() || !zero.Contains(ts(5)) {
		t.Fatal("zero range must match everything")
	}
	r := tr(10, 20)
	// Both ends inclusive.
	for sec, want := range map[int]bool{9: false, 10: true, 15: true, 20: true, 21: false} {
		if r.Contains(ts(sec)) != want {
			t.Errorf("Contains(ts(%d)) = %v, want %v", sec, !want, want)
		}
	}
	if !r.Covers(ts(10), ts(20)) || r.Covers(ts(10), ts(21)) || r.Covers(ts(9), ts(20)) {
		t.Error("Covers boundary behavior wrong")
	}
	if !r.Overlaps(ts(20), ts(30)) || !r.Overlaps(ts(0), ts(10)) || r.Overlaps(ts(21), ts(30)) || r.Overlaps(ts(0), ts(9)) {
		t.Error("Overlaps boundary behavior wrong")
	}
	inverted := tr(20, 10)
	if !inverted.Empty() || inverted.Contains(ts(15)) || inverted.Overlaps(ts(0), ts(100)) || inverted.Covers(ts(15), ts(15)) {
		t.Error("inverted range must match nothing")
	}
	fromOnly := TimeRange{From: ts(10)}
	if fromOnly.Contains(ts(9)) || !fromOnly.Contains(ts(1<<30)) {
		t.Error("from-only range wrong")
	}
	toOnly := TimeRange{To: ts(10)}
	if !toOnly.Contains(ts(0)) || toOnly.Contains(ts(11)) {
		t.Error("to-only range wrong")
	}
}

// TestTopicTimeRangeQueries checks the hot-topic filter path against the
// index fast path: grouped counts, template counts and a token search
// matching every line over a bounded range must agree with a manual
// filter, including when timestamps arrive out of order.
func TestTopicTimeRangeQueries(t *testing.T) {
	tp := NewStore("t")
	// Out-of-order arrival: 0, 50, 1, 51, ... like two interleaved queues.
	var secs []int
	for i := 0; i < 50; i++ {
		secs = append(secs, i, 50+i)
	}
	for i, s := range secs {
		appendOne(tp, ts(s), fmt.Sprintf("line %d", i), uint64(1+i%3))
	}
	for _, r := range []TimeRange{tr(10, 30), tr(0, 99), tr(25, 25), tr(90, 200), {From: ts(95)}, {To: ts(4)}, tr(30, 10), tr(1000, 2000), {}} {
		wantCounts := map[uint64]int{}
		wantTotal := 0
		for i, s := range secs {
			if r.Contains(ts(s)) {
				wantCounts[uint64(1+i%3)]++
				wantTotal++
			}
		}
		counts := tp.TemplateCounts(r)
		for id, n := range wantCounts {
			if counts[id] != n {
				t.Errorf("range %v: TemplateCounts[%d] = %d, want %d", r, id, counts[id], n)
			}
		}
		if len(counts) != len(wantCounts) {
			t.Errorf("range %v: TemplateCounts has %d ids, want %d", r, len(counts), len(wantCounts))
		}
		groups := tp.GroupedCounts(3, r)
		gotTotal := 0
		for id, g := range groups {
			gotTotal += g.Count
			if g.Count != wantCounts[id] {
				t.Errorf("range %v: GroupedCounts[%d] = %d, want %d", r, id, g.Count, wantCounts[id])
			}
			if len(g.Samples) > 3 {
				t.Errorf("range %v: %d samples exceed cap", r, len(g.Samples))
			}
			for _, off := range g.Samples {
				if !r.Contains(ts(secs[off])) {
					t.Errorf("range %v: sample offset %d outside range", r, off)
				}
			}
		}
		if gotTotal != wantTotal {
			t.Errorf("range %v: grouped total %d, want %d", r, gotTotal, wantTotal)
		}
		hits := tp.SearchRange("line", r)
		for _, off := range hits {
			if !r.Contains(ts(secs[off])) {
				t.Fatalf("range %v: search leaked offset %d at ts(%d)", r, off, secs[off])
			}
		}
		if len(hits) != wantTotal {
			t.Errorf("range %v: search found %d, want %d", r, len(hits), wantTotal)
		}
	}
}

// TestCompactingTimeRangePushdown is the tentpole correctness+efficiency
// test at the store level: a narrow range over many sealed blocks must
// return exact counts while decompressing only blocks the range
// straddles — whole blocks inside or outside the range answer from
// metadata alone.
func TestCompactingTimeRangePushdown(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 62, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 10 sealed blocks of 100 records each (forced seals), then 50 hot.
	// Record i carries ts(i), so block b spans [ts(100b), ts(100b+99)].
	n := 0
	appendNext := func() {
		raw := fmt.Sprintf("req %d from host-%d", n, n%4)
		if _, err := appendOne(s, ts(n), raw, uint64(1+n%3)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for b := 0; b < 10; b++ {
		for i := 0; i < 100; i++ {
			appendNext()
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
	}
	for i := 0; i < 50; i++ {
		appendNext()
	}
	if st := s.SegmentStats(); st.Segments != 10 || st.HotRecords != 50 {
		t.Fatalf("setup: %+v", st)
	}

	check := func(r TimeRange, wantReadsAtMost int64) {
		t.Helper()
		before := s.SegmentStats().BlockReads
		groups := s.GroupedCounts(5, r)
		want := map[uint64]int{}
		for i := 0; i < n; i++ {
			if r.Contains(ts(i)) {
				want[uint64(1+i%3)]++
			}
		}
		for id, cnt := range want {
			if groups[id].Count != cnt {
				t.Fatalf("range %v: count[%d] = %d, want %d", r, id, groups[id].Count, cnt)
			}
		}
		gotTotal := 0
		for _, g := range groups {
			gotTotal += g.Count
		}
		wantTotal := 0
		for _, c := range want {
			wantTotal += c
		}
		if gotTotal != wantTotal {
			t.Fatalf("range %v: total %d, want %d", r, gotTotal, wantTotal)
		}
		if reads := s.SegmentStats().BlockReads - before; reads > wantReadsAtMost {
			t.Fatalf("range %v: %d block reads, want <= %d", r, reads, wantReadsAtMost)
		}
	}

	// Whole-topic query: pure metadata.
	check(TimeRange{}, 0)
	// Range aligned to block boundaries: pure metadata.
	check(tr(200, 399), 0)
	// Range strictly inside one block: that one block only.
	check(tr(310, 370), 1)
	// Range straddling two adjacent blocks: at most those two.
	check(tr(390, 420), 2)
	// Range covering only the hot tail: no sealed reads at all.
	check(tr(1000, 2000), 0)
	// Disjoint and inverted ranges: nothing read, nothing returned.
	check(tr(5000, 9000), 0)
	check(tr(400, 300), 0)
	// TemplateCounts takes the same pruning path.
	before := s.SegmentStats().BlockReads
	counts := s.TemplateCounts(tr(500, 599))
	if counts[1]+counts[2]+counts[3] != 100 {
		t.Fatalf("TemplateCounts(block 5) = %v", counts)
	}
	if reads := s.SegmentStats().BlockReads - before; reads != 0 {
		t.Fatalf("block-aligned TemplateCounts paid %d reads", reads)
	}
	// A search for a token every record holds prunes whole blocks by
	// time bounds: a range inside block 7 must decompress exactly one
	// block.
	before = s.SegmentStats().BlockReads
	if seen := len(s.SearchRange("req", tr(710, 720))); seen != 11 {
		t.Fatalf("SearchRange(req, 710..720) found %d records, want 11", seen)
	}
	if reads := s.SegmentStats().BlockReads - before; reads != 1 {
		t.Fatalf("range search paid %d block reads, want 1", reads)
	}
}

// TestCountSinceBoundaries locks "records at or after cut" — the sum of
// TemplateCounts over the open-ended range starting at cut, with its
// sealed all-in/all-out metadata fast paths — to the linear-scan truth
// at exact boundary timestamps (the cut is inclusive), across the hot
// topic and sealed segments.
func TestCountSinceBoundaries(t *testing.T) {
	t.Run("compacting", func(t *testing.T) {
		s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 62, Codec: segment.CodecFlate})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 100; i++ {
			if _, err := appendOne(s, ts(10+i), "x", 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
		for i := 0; i < 40; i++ { // hot tail continues the clock
			if _, err := appendOne(s, ts(110+i), "x", 1); err != nil {
				t.Fatal(err)
			}
		}
		// cut == sealed MinTime, sealed MaxTime, hot min, hot max, and
		// one tick either side of each.
		for _, cut := range []int{9, 10, 11, 108, 109, 110, 111, 148, 149, 150} {
			want := 0
			for _, r := range allRecords(t, s) {
				if !r.Time.Before(ts(cut)) {
					want++
				}
			}
			if got := countSince(s, ts(cut)); got != want {
				t.Errorf("CountSince(ts(%d)) = %d, want %d", cut, got, want)
			}
		}
	})
}

// TestCompactingTimeRangeStress races two writers ∥ time-range Query ∥
// Seal on one segment store, then closes it; run with -race it guards
// the range paths' locking and the seal/close handoff.
func TestCompactingTimeRangeStress(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 4 << 10, Codec: segment.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := appendOne(s, ts(i), fmt.Sprintf("w%d line %d token-%d", w, i, i%17), uint64(1+i%7)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := rng.Intn(2000)
			r := tr(lo, lo+rng.Intn(500))
			total := 0
			for _, g := range s.GroupedCounts(3, r) {
				total += g.Count
			}
			n := countSince(s, ts(lo))
			_ = total
			_ = n
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.Seal(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", s.Len())
	}
	// Post-stress: a bounded range still agrees with the linear truth.
	r := tr(500, 1500)
	want := 0
	for _, rec := range allRecords(t, s) {
		if r.Contains(rec.Time) {
			want++
		}
	}
	got := 0
	for _, g := range s.GroupedCounts(5, r) {
		got += g.Count
	}
	if got != want {
		t.Fatalf("post-stress range count %d, want %d", got, want)
	}
	s.WaitIdle()
	if err := s.SealError(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(s, ts(0), "late", 1); err == nil {
		t.Fatal("append after Close must fail")
	}
}

// TestSnapshotRetentionBoundsStorage: with Latest=K and no checkpoints,
// the internal topic retains exactly K snapshots no matter how many
// training cycles append; the newest is always served, and the written
// count keeps every cycle.
func TestSnapshotRetentionBoundsStorage(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		in, err := OpenDiskInternal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		in.SetRetention(Retention{Latest: 3})
		for i := 0; i < 100; i++ {
			if err := in.AppendSnapshot(ts(i), []byte(fmt.Sprintf("model-%d", i))); err != nil {
				t.Fatal(err)
			}
			if got, _ := in.Snapshots(); got > 3 {
				t.Fatalf("after %d appends: %d snapshots retained, want <= 3", i+1, got)
			}
		}
		if retained, written := in.Snapshots(); retained != 3 || written != 100 {
			t.Fatalf("retained %d, written %d; want 3, 100", retained, written)
		}
		data, err := in.LatestSnapshot()
		if err != nil || string(data) != "model-99" {
			t.Fatalf("LatestSnapshot = %q, %v", data, err)
		}
	})
}

// TestSnapshotRetentionCheckpoints: periodic checkpoints survive pruning,
// so storage after n cycles is O(K + n/CheckpointEvery), not O(n).
func TestSnapshotRetentionCheckpoints(t *testing.T) {
	in, err := OpenDiskInternal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.SetRetention(Retention{Latest: 2, CheckpointEvery: 10})
	for i := 0; i < 50; i++ {
		if err := in.AppendSnapshot(ts(i), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kept: checkpoints 0,10,20,30,40 plus latest 48,49.
	if got, _ := in.Snapshots(); got != 7 {
		t.Fatalf("retained %d, want 7", got)
	}
	data, _ := in.LatestSnapshot()
	if string(data) != "m49" {
		t.Fatalf("latest = %q", data)
	}
}

// TestDiskInternalPruneThenReopen is the index-reuse regression: after
// pruning, the next write index must continue past the highest ever
// written — a reopened store that counted files instead would overwrite
// a retained checkpoint.
func TestDiskInternalPruneThenReopen(t *testing.T) {
	dir := t.TempDir()
	in, err := OpenDiskInternal(dir)
	if err != nil {
		t.Fatal(err)
	}
	in.SetRetention(Retention{Latest: 2, CheckpointEvery: 5})
	for i := 0; i < 12; i++ {
		if err := in.AppendSnapshot(ts(i), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kept on disk: checkpoints 0,5,10 plus latest 10,11 -> {0,5,10,11}.
	if got, _ := in.Snapshots(); got != 4 {
		t.Fatalf("retained %d, want 4", got)
	}
	// Reopen without retention: sees the 4 survivors, and the next write
	// must take index 12, not overwrite checkpoint file model-000004.
	in2, err := OpenDiskInternal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if retained, written := in2.Snapshots(); retained != 4 || written != 12 {
		t.Fatalf("reopened sees %d retained, %d written; want 4, 12", retained, written)
	}
	if data, err := in2.LatestSnapshot(); err != nil || string(data) != "m11" {
		t.Fatalf("reopened latest = %q, %v", data, err)
	}
	if err := in2.AppendSnapshot(ts(12), []byte("m12")); err != nil {
		t.Fatal(err)
	}
	if data, _ := in2.LatestSnapshot(); string(data) != "m12" {
		t.Fatalf("after reopen append, latest = %q", data)
	}
	// The old checkpoints still hold their original content.
	for _, idx := range []int{0, 5} {
		data, err := os.ReadFile(snapshotPath(dir, idx))
		if err != nil || string(data) != fmt.Sprintf("m%d", idx) {
			t.Fatalf("checkpoint %d = %q, %v", idx, data, err)
		}
	}
}
