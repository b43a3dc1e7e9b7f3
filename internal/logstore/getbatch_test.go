package logstore

import (
	"fmt"
	"testing"

	"bytebrain/internal/segment"
)

func TestTopicGetBatch(t *testing.T) {
	tp := NewStore("t")
	for i := 0; i < 50; i++ {
		appendOne(tp, ts(i), fmt.Sprintf("line %d", i), uint64(i%3))
	}
	// Out-of-order input, duplicates allowed: results come back in
	// input order.
	offs := []int64{41, 3, 3, 0, 49}
	recs, err := tp.GetBatch(offs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(offs) {
		t.Fatalf("got %d records, want %d", len(recs), len(offs))
	}
	for i, off := range offs {
		if recs[i].Offset != off || recs[i].Raw != fmt.Sprintf("line %d", off) {
			t.Fatalf("recs[%d] = %+v, want offset %d", i, recs[i], off)
		}
	}
	if _, err := tp.GetBatch([]int64{50}); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	if _, err := tp.GetBatch([]int64{-1}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if recs, err := tp.GetBatch(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty batch = (%v, %v)", recs, err)
	}
}

// TestCompactingGetBatch is the point of the batched read path: offsets
// that share a sealed block must share ONE payload decompression, not
// one per offset.
func TestCompactingGetBatch(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{Dir: t.TempDir(), SegmentBytes: 2048, Codec: segment.CodecFlate})
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
	if st.Segments < 2 {
		t.Fatalf("need ≥2 sealed segments for the test, got %d", st.Segments)
	}
	sealed := 500 - int(st.HotRecords)
	if sealed < 10 || st.HotRecords < 1 {
		t.Fatalf("want both sealed and hot records, got sealed=%d hot=%d", sealed, st.HotRecords)
	}

	check := func(offs []int64) []Record {
		t.Helper()
		recs, err := s.GetBatch(offs)
		if err != nil {
			t.Fatal(err)
		}
		for i, off := range offs {
			want := fmt.Sprintf("worker %d finished job job-%d in 12ms", off%7, off)
			if recs[i].Offset != off || recs[i].Raw != want || recs[i].TemplateID != uint64(1+off%3) {
				t.Fatalf("recs[%d] = %+v, want offset %d", i, recs[i], off)
			}
		}
		return recs
	}

	// Several offsets inside the first sealed block: exactly one
	// decompression.
	before := s.SegmentStats().BlockReads
	check([]int64{5, 0, 9, 2, 2})
	if delta := s.SegmentStats().BlockReads - before; delta != 1 {
		t.Fatalf("one-block batch cost %d block reads, want 1", delta)
	}

	// First and last sealed blocks plus a hot record: exactly two
	// decompressions (hot reads are free).
	before = s.SegmentStats().BlockReads
	check([]int64{int64(sealed) - 1, 499, 0})
	if delta := s.SegmentStats().BlockReads - before; delta != 2 {
		t.Fatalf("two-block batch cost %d block reads, want 2", delta)
	}

	// Get would have paid one read per offset; GetBatch must agree with
	// it record-for-record anyway.
	recs := check([]int64{100, 300})
	for _, r := range recs {
		single, err := getOne(s, r.Offset)
		if err != nil {
			t.Fatal(err)
		}
		if single != r {
			t.Fatalf("GetBatch(%d) = %+v, Get = %+v", r.Offset, r, single)
		}
	}

	if _, err := s.GetBatch([]int64{500}); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
}
