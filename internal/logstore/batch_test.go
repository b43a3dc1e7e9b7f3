package logstore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bytebrain/internal/segment"
)

// batchCase builds one store layout for the AppendBatch suites. reopen
// says whether the layout can be rebuilt from its directory (in-memory
// layouts, which have none, cannot recover).
type batchCase struct {
	name   string
	open   func(t *testing.T, dir string) Store
	reopen bool
}

func batchCases() []batchCase {
	return []batchCase{
		{"topic", func(t *testing.T, dir string) Store { return NewStore("t") }, false},
		// Dir alone: the compacting store at its default seal size.
		{"compacting-default", func(t *testing.T, dir string) Store {
			s, err := OpenCompacting("t", CompactConfig{Dir: dir, Codec: segment.CodecFlate})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, true},
		// Hot-only: the seal threshold is never reached.
		{"compacting-hot", func(t *testing.T, dir string) Store {
			s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, true},
		// Sealing: a tiny threshold forces rotation mid-batch.
		{"compacting-sealed", func(t *testing.T, dir string) Store {
			s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 256, Codec: segment.CodecFlate})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, true},
		// In memory, sealing: a tiny threshold forces rotation mid-batch
		// into sealed blobs held in RAM.
		{"compacting-mem-sealed", func(t *testing.T, dir string) Store {
			s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 256, Codec: segment.CodecFlate})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, false},
	}
}

// batchTestRecords builds deterministic batches with varied sizes (empty,
// single, and large enough to straddle seal thresholds) and timestamps.
func batchTestRecords() ([][]BatchRecord, []time.Time) {
	sizes := []int{1, 0, 7, 64, 3, 1, 29}
	var batches [][]BatchRecord
	var times []time.Time
	n := 0
	for bi, size := range sizes {
		batch := make([]BatchRecord, size)
		for i := range batch {
			batch[i] = BatchRecord{
				Raw:        fmt.Sprintf("worker %d finished job job-%d in %dms", n%7, n, n%97),
				TemplateID: uint64(n%5 + 1),
			}
			n++
		}
		batches = append(batches, batch)
		times = append(times, ts(bi))
	}
	return batches, times
}

// diffStores fails unless the store fed singleton batches (one) and the
// store fed the varied batches (batch) are observably identical.
func diffStores(t *testing.T, label string, one, batch Store) {
	t.Helper()
	if one.Len() != batch.Len() {
		t.Fatalf("%s: Len: singletons %d, batch %d", label, one.Len(), batch.Len())
	}
	if one.Bytes() != batch.Bytes() {
		t.Fatalf("%s: Bytes: singletons %d, batch %d", label, one.Bytes(), batch.Bytes())
	}
	a, b := allRecords(t, one), allRecords(t, batch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: record %d: singletons %+v, batch %+v", label, i, a[i], b[i])
		}
	}
	ga, gb := one.GroupedCounts(5, TimeRange{}), batch.GroupedCounts(5, TimeRange{})
	if len(ga) != len(gb) {
		t.Fatalf("%s: GroupedCounts sizes: %d vs %d", label, len(ga), len(gb))
	}
	for id, g := range ga {
		h, ok := gb[id]
		if !ok || g.Count != h.Count || len(g.Samples) != len(h.Samples) {
			t.Fatalf("%s: GroupedCounts[%d]: singletons %+v, batch %+v", label, id, g, h)
		}
		for i := range g.Samples {
			if g.Samples[i] != h.Samples[i] {
				t.Fatalf("%s: GroupedCounts[%d] sample %d: %d vs %d", label, id, i, g.Samples[i], h.Samples[i])
			}
		}
	}
	sa, sb := one.SearchRange("finished", TimeRange{}), batch.SearchRange("finished", TimeRange{})
	if !slices.Equal(sa, sb) {
		t.Fatalf("%s: SearchRange: singletons %v, batch %v", label, sa, sb)
	}
}

// TestAppendBatchEquivalence is batch-partition invariance: on every
// store layout, the same record sequence fed as varied batches and as
// singleton batches must produce exactly the same offsets, records,
// grouped counts, search hits, and (for persistent layouts)
// post-recovery state. How callers cut the stream into batches is never
// observable.
func TestAppendBatchEquivalence(t *testing.T) {
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			dirOne, dirBatch := t.TempDir(), t.TempDir()
			one := tc.open(t, dirOne)
			batch := tc.open(t, dirBatch)
			batches, times := batchTestRecords()
			for bi, recs := range batches {
				var wantFirst int64 = -1
				for _, r := range recs {
					off, err := appendOne(one, times[bi], r.Raw, r.TemplateID)
					if err != nil {
						t.Fatal(err)
					}
					if wantFirst < 0 {
						wantFirst = off
					}
				}
				got, err := batch.AppendBatch(times[bi], recs)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) > 0 && got != wantFirst {
					t.Fatalf("batch %d: AppendBatch first offset %d, singleton batches %d", bi, got, wantFirst)
				}
			}
			one.WaitIdle()
			batch.WaitIdle()
			diffStores(t, "live", one, batch)

			if !tc.reopen {
				if err := one.Close(); err != nil {
					t.Fatal(err)
				}
				if err := batch.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := one.Close(); err != nil {
				t.Fatal(err)
			}
			if err := batch.Close(); err != nil {
				t.Fatal(err)
			}
			one = tc.open(t, dirOne)
			batch = tc.open(t, dirBatch)
			defer one.Close()
			defer batch.Close()
			diffStores(t, "recovered", one, batch)
		})
	}
}

// TestAppendBatchEmptyAndNil locks in the no-op contract: empty (or nil)
// batches admit nothing, disturb no offsets, and return (0, nil).
func TestAppendBatchEmptyAndNil(t *testing.T) {
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t, t.TempDir())
			defer s.Close()
			for _, recs := range [][]BatchRecord{nil, {}} {
				off, err := s.AppendBatch(ts(0), recs)
				if err != nil || off != 0 {
					t.Fatalf("AppendBatch(empty) = (%d, %v), want (0, nil)", off, err)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("empty batches admitted %d records", s.Len())
			}
			if _, err := s.AppendBatch(ts(0), []BatchRecord{{Raw: "a b", TemplateID: 1}}); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
		})
	}
}
