package logstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bytebrain/internal/fsx"
	"bytebrain/internal/segment"
)

// tornSink wraps a block's live walSink and fails one WriteString halfway
// through, flushing the torn prefix to disk — the exact shape of a
// partial write caught by a device error: the WAL file ends in a record
// header plus half a payload. countdown > 0 defers the tear to the
// countdown-th record write, so a tear can be injected in the middle of
// a group-committed batch.
type tornSink struct {
	inner     walSink
	failNext  bool
	countdown int
}

var errInjected = errors.New("injected write failure")

func (t *tornSink) Write(p []byte) (int, error) { return t.inner.Write(p) }

func (t *tornSink) WriteString(s string) (int, error) {
	if t.countdown > 0 {
		t.countdown--
		if t.countdown == 0 {
			t.failNext = true
		}
	}
	if t.failNext {
		t.failNext = false
		n, _ := t.inner.WriteString(s[:len(s)/2])
		t.inner.Flush() // the torn prefix reaches the file, as in a real tear
		return n, errInjected
	}
	return t.inner.WriteString(s)
}

func (t *tornSink) Flush() error { return t.inner.Flush() }

// injectTornWrite arms the live hot block's WAL to tear on the next
// append.
func injectTornWrite(s *CompactingStore) {
	injectTornWriteAt(s, 1)
}

// injectTornWriteAt arms the live hot block's WAL to tear on the k-th
// record written from now on (k = 1 tears the very next one).
func injectTornWriteAt(s *CompactingStore, k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.blocks[len(s.blocks)-1].wal
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w = &tornSink{inner: w.w, countdown: k}
}

// TestWALTornWritePoisonsAndRotates is the satellite-bug regression: a
// mid-record WAL write failure must not let later admitted records land
// after the torn record, where replay's torn-tail truncation would
// silently discard them. The store must poison the WAL, rotate, and
// recover every admitted record.
func TestWALTornWritePoisonsAndRotates(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 5, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Stop the sealer before the fault so recovery below exercises the
	// WAL-replay path, not a sealed segment.
	close(s.doneCh)
	s.sealWG.Wait()

	injectTornWrite(s)
	if _, err := appendOne(s, ts(5), "this record is torn midway through its payload", 9); err == nil {
		t.Fatal("append over a torn WAL write must fail")
	}
	if s.Len() != 5 {
		t.Fatalf("failed append was admitted: Len = %d, want 5", s.Len())
	}

	// Subsequent appends must succeed (fresh block + fresh WAL) and keep
	// offsets dense. Flush still flushes the healthy WAL but must report
	// that the poisoned block's records await their seal (the sealer is
	// stopped here, so the gap is real).
	fillCompacting(t, s, 4, 5)
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "awaiting seal") {
		t.Fatalf("Flush over an unsealed poisoned block = %v, want pending-seal report", err)
	}

	// The poisoned WAL must be dead: nothing may be appended after its
	// torn record, in memory or on disk.
	s.mu.Lock()
	poisonedWAL := s.blocks[0].wal
	poisonedPath := s.blocks[0].walPath
	if !s.blocks[0].sealing {
		s.mu.Unlock()
		t.Fatal("poisoned block not handed to the sealer")
	}
	s.mu.Unlock()
	if _, err := poisonedWAL.appendBatch(ts(99), []BatchRecord{{Raw: "late write", TemplateID: 1}}); err == nil {
		t.Fatal("poisoned WAL accepted another append")
	}

	// "Crash": abandon the store. The poisoned WAL file ends in the torn
	// record; the four post-failure records live in the next WAL file.
	if fi, err := os.Stat(poisonedPath); err != nil || fi.Size() <= 5*(recordOverhead) {
		t.Fatalf("poisoned WAL missing its flushed records: %v %v", fi, err)
	}

	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 9 {
		t.Fatalf("recovered %d records, want all 9 admitted", s2.Len())
	}
	for i := int64(0); i < 9; i++ {
		r, err := getOne(s2, i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		want := fmt.Sprintf("worker %d finished job job-%d in 12ms", i%7, i)
		if r.Raw != want {
			t.Fatalf("Get(%d) = %q, want %q", i, r.Raw, want)
		}
	}
	// The torn record itself must be gone.
	if hits := s2.SearchRange("torn", TimeRange{}); len(hits) != 0 {
		t.Fatalf("torn record resurfaced: %v", hits)
	}
}

// TestWALTornWriteSealedRecovery covers the live-process healing path:
// after a torn write the poisoned block seals from memory, replacing the
// dead WAL with a durable segment.
func TestWALTornWriteSealedRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 5, 0)
	injectTornWrite(s)
	if _, err := appendOne(s, ts(5), "torn", 9); err == nil {
		t.Fatal("append over a torn WAL write must fail")
	}
	fillCompacting(t, s, 4, 5)
	s.WaitIdle()
	if err := s.SealError(); err != nil {
		t.Fatal(err)
	}
	st := s.SegmentStats()
	if st.Segments != 1 || st.SealedRecords != 5 {
		t.Fatalf("poisoned block not sealed from memory: %+v", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 9 {
		t.Fatalf("recovered %d records, want 9", s2.Len())
	}
}

// TestWALTornWriteSurvivesImmediateClose: Close racing the poisoning
// append must still seal the poisoned block (its admitted records may
// exist nowhere durable — the WAL can no longer flush), not abandon it.
// The shutdown drain in sealLoop makes this deterministic.
func TestWALTornWriteSurvivesImmediateClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 5, 0)
	injectTornWrite(s)
	if _, err := appendOne(s, ts(5), "torn", 9); err == nil {
		t.Fatal("append over a torn WAL write must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.SegmentStats()
	if st.Segments != 1 || st.SealedRecords != 5 {
		t.Fatalf("Close abandoned the poisoned block: %+v", st)
	}
	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("recovered %d records, want 5", s2.Len())
	}
}

// TestWALTornWriteCloseReportsUnsealed: when the poisoned block's rescue
// seal ALSO fails (a full disk: ENOSPC on the segment temp-file create),
// Close must report the data loss instead of returning nil.
func TestWALTornWriteCloseReportsUnsealed(t *testing.T) {
	fsys := fsx.NewFaultFS()
	s, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 1 << 30, Opts: StoreOptions{FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 5, 0)
	fsys.SetHook(func(op fsx.OpInfo) error {
		if op.Kind == fsx.OpCreate && strings.HasSuffix(op.Path, segment.TmpSuffix) {
			return fsx.ErrNoSpace
		}
		return nil
	})
	injectTornWrite(s)
	if _, err := appendOne(s, ts(5), "torn", 9); err == nil {
		t.Fatal("append over a torn WAL write must fail")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("Close with an unsealable poisoned block = %v, want data-loss report", err)
	}
}

// TestWALTornFirstRecordDropsEmptyBlock: when the very first append of a
// block tears, the block holds nothing worth sealing; it must be dropped
// with its WAL and ingestion must continue cleanly.
func TestWALTornFirstRecordDropsEmptyBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	injectTornWrite(s)
	if _, err := appendOne(s, ts(0), "torn first record", 1); err == nil {
		t.Fatal("append over a torn WAL write must fail")
	}
	fillCompacting(t, s, 3, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.mu.Lock()
	blocks := len(s.blocks)
	s.mu.Unlock()
	if blocks != 1 {
		t.Fatalf("empty poisoned block not dropped: %d blocks", blocks)
	}
	// Its torn WAL file must be gone too.
	wals, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files = %v, %v; want exactly the live block's", wals, err)
	}
}

// TestSealToleratesSealedTail is the satellite-bug regression for
// CompactingStore.Seal dereferencing a nil hot pointer when the tail
// block is already sealed (a failed rotation path can leave it so).
func TestSealToleratesSealedTail(t *testing.T) {
	s, err := OpenCompacting("t", CompactConfig{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillCompacting(t, s, 10, 0)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	// Simulate the failed-rotation aftermath: drop the fresh hot tail so
	// the last block is the sealed one (hot == nil).
	s.mu.Lock()
	if last := s.blocks[len(s.blocks)-1]; last.hot == nil || last.hot.Count() != 0 {
		s.mu.Unlock()
		t.Fatalf("setup: expected an empty hot tail")
	}
	s.blocks = s.blocks[:len(s.blocks)-1]
	s.mu.Unlock()

	if err := s.Seal(); err != nil { // must not panic
		t.Fatal(err)
	}
	// The append invariant is restored: new records land normally.
	off, err := appendOne(s, ts(10), "after sealed tail", 2)
	if err != nil || off != 10 {
		t.Fatalf("Append after sealed tail: %d, %v", off, err)
	}
	if s.Len() != 11 {
		t.Fatalf("Len = %d, want 11", s.Len())
	}
}
