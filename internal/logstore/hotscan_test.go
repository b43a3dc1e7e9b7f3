package logstore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/obs"
	"bytebrain/internal/segment"
)

// hotScanLines exercise what a token scan and a tokenizer can disagree
// on: tabs and runs of spaces (also leading and trailing), Unicode
// whitespace (NBSP, ideographic space, NEL) inside a space-separated
// column, tokens that are substrings of longer tokens, and repeats.
var hotScanLines = []string{
	"error on disk sda",
	"ok on disk sdb",
	"error again",
	"a\tb\t\tc  d",
	"  lead and trail  ",
	"blk_1 blk_12 blk_123",
	"x y p　q m\u0085n",
	"Receiving block blk_-99 src: /10.0.0.1:50010",
	"error error error",
	"sda",
	"a\tb c\td",
	"a\tb",
	"   three   spaced   words   ",
	"\ttab lead\t and\t\ttail\t",
	"id=7　ok　 　end",
	"　ideo　 lead",
}

// TestSearchHotMatchesSealed pins that a record's search hits do not
// change when its block seals: the hot scan and the sealed bloom+decode
// path answer every token of every line, and tokens that are absent or
// only substrings, identically under the zero, a covering and a
// straddling time range.
func TestSearchHotMatchesSealed(t *testing.T) {
	tokens := []string{"absent", "", "rror", "blk_", "a b", "on disk", "p　q", "a\tb", "\t", "　", "id=7　ok", "  "}
	for _, line := range hotScanLines {
		tokens = append(tokens, segment.Tokenize(line)...)
	}
	ranges := map[string]TimeRange{
		"zero":       {},
		"covering":   tr(-10, 1000),
		"straddling": tr(5, 13),
	}
	for _, dir := range []string{"", t.TempDir()} {
		s, err := OpenCompacting("t", CompactConfig{Dir: dir, Codec: segment.CodecFlate})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*len(hotScanLines); i++ {
			if _, err := appendOne(s, ts(i), hotScanLines[i%len(hotScanLines)], uint64(1+i%4)); err != nil {
				t.Fatal(err)
			}
		}
		hot := map[string][]int64{}
		for name, r := range ranges {
			for _, tok := range tokens {
				hot[name+"/"+tok] = s.SearchRange(tok, r)
			}
		}
		if got := hot["zero/error"]; len(got) != 9 {
			t.Fatalf("dir=%q: hot Search(error) = %v, want 9 offsets", dir, got)
		}
		if got := hot["zero/a\tb"]; len(got) != 0 {
			t.Fatalf("dir=%q: hot Search(a\\tb) = %v; a token never holds whitespace", dir, got)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle()
		if st := s.SegmentStats(); st.HotRecords != 0 || st.Segments != 1 {
			t.Fatalf("dir=%q: after seal %+v, want every record in one segment", dir, st)
		}
		for name, r := range ranges {
			for _, tok := range tokens {
				want, got := hot[name+"/"+tok], s.SearchRange(tok, r)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("dir=%q range=%s token=%q: sealed %v, hot %v", dir, name, tok, got, want)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// gateFS holds every segment write at its Create until the test lets it
// through: one receive from gate per write (nil proceeds, an error fails
// the write), or every write once open is closed. WAL writes pass.
type gateFS struct {
	fsx.FS
	gate chan error
	open chan struct{}
	once sync.Once
}

func (g *gateFS) Create(name string) (fsx.File, error) {
	if strings.HasSuffix(name, segment.TmpSuffix) {
		select {
		case err := <-g.gate:
			if err != nil {
				return nil, err
			}
		case <-g.open:
		}
	}
	return g.FS.Create(name)
}

func (g *gateFS) release() { g.once.Do(func() { close(g.open) }) }

// TestTopicScanHoldsNoLock pins that a scan's callback runs without the
// topic lock: an append issued while a scan is in progress completes
// before the scan ends, so a token search over a whole hot block never
// stalls writers. The scan sees the records present when it started.
func TestTopicScanHoldsNoLock(t *testing.T) {
	tp := newTopic(10, 0)
	tp.appendBatch(ts(1), []BatchRecord{{Raw: "a b"}, {Raw: "c d"}})
	var seen []int64
	tp.scan(TimeRange{}, func(r Record) {
		done := make(chan struct{})
		go func() {
			tp.appendBatch(ts(2), []BatchRecord{{Raw: "a e"}})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("append blocked behind a running scan")
		}
		seen = append(seen, r.Offset)
	})
	if !reflect.DeepEqual(seen, []int64{10, 11}) {
		t.Fatalf("scan saw offsets %v, want [10 11]", seen)
	}
	got, _, _ := tp.SearchRangeInfo("a", time.Time{}, time.Time{})
	if !reflect.DeepEqual(got, []int64{10, 12, 13}) {
		t.Fatalf("SearchRangeInfo(a) = %v, want [10 12 13]", got)
	}
}

// TestSealQueueBounded pins the seal-queue bound: with maxQueuedSeals
// full blocks waiting for a held sealer, the next AppendBatch waits, and
// it is released by a seal landing, by Close, by degraded mode, and by a
// failed seal whose block waits out its retry backoff. Each wait counts
// once in SealWaits and SealWaitSeconds; an append that does not wait
// counts nothing and allocates nothing for it.
func TestSealQueueBounded(t *testing.T) {
	full := []BatchRecord{{Raw: "fill " + strings.Repeat("x", 300), TemplateID: 1}}
	open := func(t *testing.T) (*CompactingStore, *gateFS) {
		g := &gateFS{FS: fsx.NewFaultFS(), gate: make(chan error), open: make(chan struct{})}
		reg := obs.NewRegistry()
		m := &Metrics{
			SealWaits:       reg.Counter("seal_waits_total", "t").With(),
			SealWaitSeconds: reg.Histogram("seal_wait_seconds", "t", obs.LatencyBuckets).With(),
		}
		s, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 256, Opts: StoreOptions{
			FS: g, SealRetryBase: time.Hour, SealRetryMax: time.Hour, Metrics: m,
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			g.release()
			s.Close()
		})
		// With nothing queued, the bound check neither waits nor
		// allocates.
		if n := testing.AllocsPerRun(100, func() {
			s.mu.Lock()
			s.waitSealBacklogLocked()
			s.mu.Unlock()
		}); n != 0 {
			t.Fatalf("the seal-queue check allocates %.1f times when it does not wait", n)
		}
		// Each record fills a block on its own; the first is held at its
		// segment write, the second queues behind it.
		for i := 0; i < maxQueuedSeals; i++ {
			if _, err := s.AppendBatch(ts(i), full); err != nil {
				t.Fatal(err)
			}
		}
		s.mu.Lock()
		backlog := s.sealBacklogLocked()
		s.mu.Unlock()
		if !backlog {
			t.Fatalf("%d full blocks appended, but no seal backlog", maxQueuedSeals)
		}
		assertWaits(t, s, 0)
		return s, g
	}
	waiting := func(t *testing.T, s *CompactingStore) <-chan error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := s.AppendBatch(ts(9), full)
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("AppendBatch returned (err %v) with %d blocks queued", err, maxQueuedSeals)
		case <-time.After(100 * time.Millisecond):
		}
		return done
	}
	released := func(t *testing.T, s *CompactingStore, done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			assertWaits(t, s, 1)
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("AppendBatch still waiting")
			return nil
		}
	}

	t.Run("seal lands", func(t *testing.T) {
		s, g := open(t)
		done := waiting(t, s)
		g.gate <- nil
		if err := released(t, s, done); err != nil {
			t.Fatal(err)
		}
		if n := s.Len(); n != maxQueuedSeals+1 {
			t.Fatalf("Len = %d, want %d", n, maxQueuedSeals+1)
		}
	})
	t.Run("close", func(t *testing.T) {
		s, g := open(t)
		done := waiting(t, s)
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		if err := released(t, s, done); err == nil || errors.Is(err, ErrDegraded) {
			t.Fatalf("AppendBatch after Close = %v, want the closed-store error", err)
		}
		g.release() // let the shutdown drain seal the queue
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if st := s.SegmentStats(); st.Segments != maxQueuedSeals {
			t.Fatalf("Close sealed %d segments, want %d", st.Segments, maxQueuedSeals)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		s, _ := open(t)
		done := waiting(t, s)
		s.setDegraded(fmt.Errorf("injected: %w", fsx.ErrNoSpace))
		if err := released(t, s, done); !errors.Is(err, ErrDegraded) {
			t.Fatalf("AppendBatch in degraded mode = %v, want ErrDegraded", err)
		}
	})
	t.Run("failed seal in backoff", func(t *testing.T) {
		s, g := open(t)
		done := waiting(t, s)
		g.gate <- errors.New("injected seal failure")
		if err := released(t, s, done); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		first := s.blocks[0]
		inBackoff := first.hot != nil && !first.sealing
		s.mu.Unlock()
		if !inBackoff {
			t.Fatal("the failed block should still be hot and out of the queue during its backoff")
		}
		if s.SealError() == nil {
			t.Fatal("SealError = nil after an injected seal failure")
		}
	})
}

// assertWaits checks that the store counted want seal-queue waits, each
// with one wait-time observation.
func assertWaits(t *testing.T, s *CompactingStore, want int64) {
	t.Helper()
	if n, h := s.m.SealWaits.Value(), s.m.SealWaitSeconds.Count(); n != want || h != want {
		t.Fatalf("SealWaits = %d with %d wait-time observations, want %d", n, h, want)
	}
}
