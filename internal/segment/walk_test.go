package segment

import (
	"testing"
	"time"
)

// TestSealedQueryAllocs gates the sealed query paths on allocations: a
// search or a by-template query over a block of thousands of records
// allocates per block and per table entry hit, never per record, so
// bringing back a per-record line (or any per-record string) fails it.
func TestSealedQueryAllocs(t *testing.T) {
	recs := sampleRecords(20000, 0)
	blob, _, err := Encode(recs, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(r.Count() / 100)
	straddle := [2]time.Time{ts(1000), ts(4000)}
	for _, q := range []struct {
		name string
		run  func() ([]int64, bool, error)
	}{
		{"search rare variable", func() ([]int64, bool, error) { return r.SearchRangeInfo("blk_4321", time.Time{}, time.Time{}) }},
		{"search literal", func() ([]int64, bool, error) { return r.SearchRangeInfo("terminating", time.Time{}, time.Time{}) }},
		{"search straddling", func() ([]int64, bool, error) { return r.SearchRangeInfo("blk_-99", straddle[0], straddle[1]) }},
		{"by-template", func() ([]int64, bool, error) { return r.ByTemplateRangeInfo(time.Time{}, time.Time{}, 101) }},
		{"by-template straddling", func() ([]int64, bool, error) { return r.ByTemplateRangeInfo(straddle[0], straddle[1], 101, 103) }},
	} {
		offs, decoded, err := q.run()
		if err != nil || !decoded || len(offs) == 0 {
			t.Fatalf("%s: %d offsets, decoded %v, %v", q.name, len(offs), decoded, err)
		}
		if n := testing.AllocsPerRun(5, func() { q.run() }); n >= budget {
			t.Errorf("%s: %.0f allocations over %d records, want < %.0f", q.name, n, r.Count(), budget)
		} else {
			t.Logf("%s: %.0f allocations, %d offsets", q.name, n, len(offs))
		}
	}
}
