package logstore

import (
	"sync"
	"testing"
	"time"
)

func ts(sec int) time.Time { return time.Unix(int64(sec), 0) }

func TestAppendAssignsDenseOffsets(t *testing.T) {
	tp := NewStore("t")
	for i := 0; i < 10; i++ {
		off, err := appendOne(tp, ts(i), "line", uint64(i%3))
		if err != nil || off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	if tp.Len() != 10 {
		t.Errorf("Len = %d", tp.Len())
	}
}

func TestGetAndScan(t *testing.T) {
	tp := NewStore("t")
	appendOne(tp, ts(1), "alpha beta", 1)
	appendOne(tp, ts(2), "gamma delta", 2)
	r, err := getOne(tp, 1)
	if err != nil || r.Raw != "gamma delta" || r.TemplateID != 2 {
		t.Fatalf("Get(1) = %+v, %v", r, err)
	}
	if _, err := getOne(tp, 5); err == nil {
		t.Error("Get out of range did not error")
	}
	if _, err := getOne(tp, -1); err == nil {
		t.Error("Get(-1) did not error")
	}
	if recs := allRecords(t, tp); len(recs) != 2 || recs[0].Raw != "alpha beta" {
		t.Errorf("all records = %+v", recs)
	}
}

func TestByTemplateAndCounts(t *testing.T) {
	tp := NewStore("t")
	appendOne(tp, ts(1), "a", 7)
	appendOne(tp, ts(2), "b", 9)
	appendOne(tp, ts(3), "c", 7)
	offs := tp.ByTemplateRange(TimeRange{}, 7)
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 2 {
		t.Errorf("ByTemplate(7) = %v", offs)
	}
	both := tp.ByTemplateRange(TimeRange{}, 7, 9)
	if len(both) != 3 {
		t.Errorf("ByTemplate(7,9) = %v", both)
	}
	// A repeated ID names each record once.
	if twice := tp.ByTemplateRange(TimeRange{}, 7, 7); len(twice) != 2 {
		t.Errorf("ByTemplate(7,7) = %v", twice)
	}
	counts := tp.TemplateCounts(TimeRange{})
	if counts[7] != 2 || counts[9] != 1 {
		t.Errorf("TemplateCounts = %v", counts)
	}
}

func TestSearchTokenIndex(t *testing.T) {
	tp := NewStore("t")
	appendOne(tp, ts(1), "error on disk sda", 1)
	appendOne(tp, ts(2), "ok on disk sdb", 1)
	appendOne(tp, ts(3), "error again", 2)
	offs := tp.SearchRange("error", TimeRange{})
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 2 {
		t.Errorf("Search(error) = %v", offs)
	}
	if got := tp.SearchRange("absent", TimeRange{}); len(got) != 0 {
		t.Errorf("Search(absent) = %v", got)
	}
}

func TestCountSince(t *testing.T) {
	tp := NewStore("t")
	for i := 0; i < 10; i++ {
		appendOne(tp, ts(i), "x", 0)
	}
	if got := countSince(tp, ts(7)); got != 3 {
		t.Errorf("CountSince = %d, want 3", got)
	}
	if got := countSince(tp, ts(100)); got != 0 {
		t.Errorf("CountSince(future) = %d", got)
	}
	if got := countSince(tp, ts(0)); got != 10 {
		t.Errorf("CountSince(epoch) = %d", got)
	}
}

// TestCountSinceOutOfOrder is the satellite-bug regression: interleaved
// ingest queues append non-monotonic timestamps, and a binary search over
// them returns an arbitrary boundary. The count must match the linear
// truth regardless of arrival order.
func TestCountSinceOutOfOrder(t *testing.T) {
	tp := NewStore("t")
	// 0, 5, 1, 6, 2, 7, ... — two queues interleaving their clocks.
	secs := []int{0, 5, 1, 6, 2, 7, 3, 8, 4, 9}
	for _, s := range secs {
		appendOne(tp, ts(s), "x", 0)
	}
	for _, cut := range []int{0, 3, 5, 8, 9, 10} {
		want := 0
		for _, s := range secs {
			if s >= cut {
				want++
			}
		}
		if got := countSince(tp, ts(cut)); got != want {
			t.Errorf("CountSince(%d) = %d, want %d", cut, got, want)
		}
	}
}

// TestCountSinceConcurrentIngest drives appends from several goroutines
// whose timestamps deliberately interleave, then checks CountSince
// against every record read back — under -race this also covers the watermark
// bookkeeping.
func TestCountSinceConcurrentIngest(t *testing.T) {
	tp := NewStore("t")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				appendOne(tp, ts(g*1000+i), "line", 0)
			}
		}(g)
	}
	wg.Wait()
	cut := ts(2000)
	want := 0
	for _, r := range allRecords(t, tp) {
		if !r.Time.Before(cut) {
			want++
		}
	}
	if want != 500 {
		t.Fatalf("setup: counted %d, want 500", want)
	}
	if got := countSince(tp, cut); got != want {
		t.Fatalf("CountSince = %d, want %d", got, want)
	}
	if got := countSince(tp, ts(4000)); got != 0 {
		t.Fatalf("CountSince(beyond watermark) = %d, want 0", got)
	}
}

func TestBytesTracked(t *testing.T) {
	tp := NewStore("t")
	appendOne(tp, ts(1), "12345", 0)
	appendOne(tp, ts(2), "123", 0)
	if tp.Bytes() != 8 {
		t.Errorf("Bytes = %d, want 8", tp.Bytes())
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	tp := NewStore("t")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				appendOne(tp, time.Now(), "concurrent line", uint64(i%5))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tp.Len()
				tp.TemplateCounts(TimeRange{})
				tp.SearchRange("concurrent", TimeRange{})
			}
		}()
	}
	wg.Wait()
	if tp.Len() != 800 {
		t.Errorf("Len = %d, want 800", tp.Len())
	}
	// Offsets dense and ordered.
	for i, r := range allRecords(t, tp) {
		if r.Offset != int64(i) {
			t.Fatalf("record %d has offset %d", i, r.Offset)
		}
	}
}
