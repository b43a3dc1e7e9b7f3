package logstore

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"os"

	"bytebrain/internal/fsx"
)

// failFlushSink makes the final buffered flush fail with a
// recognizable error, independent of the file descriptor's own state.
type failFlushSink struct {
	walSink
}

func (f *failFlushSink) Flush() error { return errInjected }

// TestWALCloseJoinsFlushAndCloseErrors is the regression for
// walWriter.close dropping the file-close error when the final flush
// also failed: both failures must reach the caller.
func TestWALCloseJoinsFlushAndCloseErrors(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(fsx.OS(), filepath.Join(dir, walPrefix+"000000"+walSuffix), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendBatch(time.Unix(0, 0), []BatchRecord{{Raw: "buffered, never flushed", TemplateID: 1}}); err != nil {
		t.Fatal(err)
	}
	// Arm a failing flush AND yank the descriptor: close must now fail
	// both steps and report both, not just the first.
	w.w = &failFlushSink{walSink: w.w}
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	err = w.close()
	if err == nil {
		t.Fatal("close over a dead descriptor returned nil")
	}
	if !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("close error %q does not surface the flush failure", err)
	}
	if !strings.Contains(err.Error(), "file already closed") {
		t.Fatalf("close error %q does not surface the file-close failure", err)
	}
}

// TestSealSurfacesWALCleanupFailure is the regression for sealOne
// silently discarding WAL teardown failures after a successful seal: a
// failed remove leaves a stray WAL that recovery must handle, so it has
// to surface through SealError while an operator can act on it.
func TestSealSurfacesWALCleanupFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillCompacting(t, s, 5, 0)
	// Repoint the hot block's WAL path at a non-empty directory:
	// sealing succeeds, but the post-seal os.Remove cannot.
	blocker := filepath.Join(dir, "blocker")
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.blocks[len(s.blocks)-1].walPath = blocker
	s.mu.Unlock()

	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if err := s.SealError(); err == nil || !strings.Contains(err.Error(), "remove sealed block") {
		t.Fatalf("SealError = %v, want the WAL remove failure surfaced", err)
	}
	// The records themselves are durable regardless.
	st := s.SegmentStats()
	if st.Segments != 1 || st.SealedRecords != 5 {
		t.Fatalf("seal did not complete: %+v", st)
	}
}
