package logstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// walFiles returns dir's WAL file names, sorted.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// stopSealer halts the background compactor so WAL files survive for
// byte-level inspection (sealing deletes them).
func stopSealer(s *CompactingStore) {
	close(s.doneCh)
	s.sealWG.Wait()
}

// TestWALBatchGoldenBytes is the WAL half of batch-partition invariance:
// the bytes one big group-committed AppendBatch writes must be identical
// to the bytes singleton batches write for the same records — including
// the block-rotation boundaries mid-batch, so the WAL file SET matches
// too. (TestWALPrePRFormatRecovers pins the record encoding itself.)
func TestWALBatchGoldenBytes(t *testing.T) {
	for _, segBytes := range []int64{1 << 30, 300} {
		t.Run(fmt.Sprintf("segmentBytes=%d", segBytes), func(t *testing.T) {
			dirOne, dirBatch := t.TempDir(), t.TempDir()
			one, err := OpenCompacting("t", CompactConfig{Dir: dirOne, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := OpenCompacting("t", CompactConfig{Dir: dirBatch, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			// Stop both sealers first: rotation may otherwise seal early
			// blocks and delete exactly the WAL files under comparison.
			stopSealer(one)
			stopSealer(batch)

			recs := make([]BatchRecord, 40)
			for i := range recs {
				recs[i] = BatchRecord{
					Raw:        fmt.Sprintf("req %d served in %dms by node-%d", i, i%17, i%3),
					TemplateID: uint64(i%4 + 1),
				}
			}
			for _, r := range recs {
				if _, err := appendOne(one, ts(7), r.Raw, r.TemplateID); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := batch.AppendBatch(ts(7), recs); err != nil {
				t.Fatal(err)
			}
			if err := one.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := batch.Flush(); err != nil {
				t.Fatal(err)
			}

			onePaths, batchPaths := walFiles(t, dirOne), walFiles(t, dirBatch)
			if len(onePaths) != len(batchPaths) {
				t.Fatalf("WAL file sets differ: singletons %v, batch %v", onePaths, batchPaths)
			}
			if segBytes == 300 && len(onePaths) < 2 {
				t.Fatalf("expected mid-batch rotation to produce multiple WALs, got %v", onePaths)
			}
			for i := range onePaths {
				if filepath.Base(onePaths[i]) != filepath.Base(batchPaths[i]) {
					t.Fatalf("WAL name %d: %s vs %s", i, onePaths[i], batchPaths[i])
				}
				a, err := os.ReadFile(onePaths[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(batchPaths[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("WAL %s differs between singleton and one-batch writes (%d vs %d bytes)",
						filepath.Base(onePaths[i]), len(a), len(b))
				}
			}

			// The batch-written WALs replay through the unchanged reader.
			reopened, err := OpenCompacting("t", CompactConfig{Dir: dirBatch, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if reopened.Len() != len(recs) {
				t.Fatalf("recovered %d records from batch-written WALs, want %d", reopened.Len(), len(recs))
			}
			for i := int64(0); i < int64(len(recs)); i++ {
				r, err := getOne(reopened, i)
				if err != nil || r.Raw != recs[i].Raw || r.TemplateID != recs[i].TemplateID {
					t.Fatalf("Get(%d) = %+v, %v; want %+v", i, r, err, recs[i])
				}
			}
		})
	}
}

// TestWALPrePRFormatRecovers writes a WAL with the raw record encoding
// directly — the exact byte stream the pre-PR per-record writer produced
// — and verifies the store still recovers it: no version bump, no
// migration.
func TestWALPrePRFormatRecovers(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	raws := []string{"old format line one", "old format line two", "old format line three"}
	for i, raw := range raws {
		var hdr [recordOverhead]byte
		putRecordHeader(hdr[:], ts(i), uint64(i+1), len(raw))
		buf = append(buf, hdr[:]...)
		buf = append(buf, raw...)
	}
	if err := os.WriteFile(filepath.Join(dir, walPrefix+"000000"+walSuffix), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(raws) {
		t.Fatalf("recovered %d records, want %d", s.Len(), len(raws))
	}
	for i, raw := range raws {
		r, err := getOne(s, int64(i))
		if err != nil || r.Raw != raw || r.TemplateID != uint64(i+1) {
			t.Fatalf("Get(%d) = %+v, %v", i, r, err)
		}
	}
	// And the batch path keeps appending to it in the same format.
	if _, err := s.AppendBatch(ts(9), []BatchRecord{{Raw: "new batch line", TemplateID: 9}}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(raws)+1 {
		t.Fatalf("Len = %d after batch append", s.Len())
	}
}

// TestWALTornTailMidBatch injects a write tear in the MIDDLE of a
// group-committed batch: the fully-written prefix of the batch must be
// admitted (and survive replay), the torn record and everything after it
// must fail, and the quarantine path must keep later appends flowing
// into a fresh WAL.
func TestWALTornTailMidBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, s, 3, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep WALs on disk: recovery below must come from replay, not seal.
	stopSealer(s)

	batch := make([]BatchRecord, 10)
	for i := range batch {
		batch[i] = BatchRecord{Raw: fmt.Sprintf("batch record %d with payload", i), TemplateID: uint64(i)}
	}
	injectTornWriteAt(s, 6) // tear inside record index 5 of the batch
	if _, err := s.AppendBatch(ts(3), batch); err == nil {
		t.Fatal("AppendBatch over a torn WAL write must fail")
	}
	// 3 pre-batch + 5 fully-written batch records are admitted.
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (prefix of the torn batch admitted)", s.Len())
	}
	// The store rotated to a fresh WAL; further batches land cleanly.
	if _, err := s.AppendBatch(ts(4), batch[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "awaiting seal") {
		t.Fatalf("Flush over the unsealed poisoned block = %v, want pending-seal report", err)
	}

	// "Crash" and recover: only the torn suffix is gone.
	s2, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("recovered %d records, want 10 (3 + 5 admitted + 2 post-rotate)", s2.Len())
	}
	for i := 0; i < 5; i++ {
		r, err := getOne(s2, int64(3+i))
		if err != nil || r.Raw != batch[i].Raw {
			t.Fatalf("Get(%d) = %+v, %v; want %q", 3+i, r, err, batch[i].Raw)
		}
	}
	// The torn record must not resurface.
	if hits := s2.SearchRange("record", TimeRange{}); len(hits) != 7 {
		t.Fatalf("Search hits = %d, want 7 (5 admitted + 2 post-rotate)", len(hits))
	}
}
