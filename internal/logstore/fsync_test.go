package logstore

import (
	"testing"
	"time"

	"bytebrain/internal/obs"
)

// testMetrics builds a fully-populated Metrics bundle against a private
// registry so assertions can read exact counter values.
func testMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		WALAppendRecords:   r.Counter("wal_append_records_total", "t").With(),
		WALAppendBytes:     r.Counter("wal_append_bytes_total", "t").With(),
		WALFsyncs:          r.Counter("wal_fsyncs_total", "t").With(),
		WALFsyncErrors:     r.Counter("wal_fsync_errors_total", "t").With(),
		WALFsyncSeconds:    r.Histogram("wal_fsync_seconds", "t", obs.LatencyBuckets).With(),
		WALPoisonRotations: r.Counter("wal_poison_rotations_total", "t").With(),
		RecoveredSegments:  r.Counter("recovered_segments_total", "t").With(),
		RecoveredRecords:   r.Counter("recovered_records_total", "t").With(),
		WALTornTails:       r.Counter("wal_torn_tails_total", "t").With(),
		BatchRecords:       r.Histogram("batch_records", "t", obs.SizeBuckets(1, 64, 256, 1024)).With(),
		Seals:              r.Counter("seals_total", "t").With(),
		SealSeconds:        r.Histogram("seal_seconds", "t", obs.LatencyBuckets).With(),
		BlocksPruned:       r.Counter("blocks_pruned_total", "t").With(),
	}
}

func batchOf(n int, tmpl uint64) []BatchRecord {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i] = BatchRecord{Raw: "metric test line payload", TemplateID: tmpl}
	}
	return recs
}

// TestWALFsyncEveryN verifies the count half of the fsync policy: one
// fsync per N WAL commits, no more.
func TestWALFsyncEveryN(t *testing.T) {
	m := testMetrics()
	s, err := OpenCompacting("t", CompactConfig{
		Dir:          t.TempDir(),
		SegmentBytes: 1 << 20,
		Opts:         StoreOptions{Metrics: m, FsyncEveryBatches: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := s.AppendBatch(ts, batchOf(3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// 5 batch commits at every-2 → fsyncs after commits 2 and 4.
	if got := m.WALFsyncs.Value(); got != 2 {
		t.Fatalf("fsyncs = %d, want 2", got)
	}
	if got := m.WALAppendRecords.Value(); got != 15 {
		t.Fatalf("wal records = %d, want 15", got)
	}
	if m.WALAppendBytes.Value() <= 0 {
		t.Fatal("wal bytes not recorded")
	}
	if got := m.BatchRecords.Count(); got != 5 {
		t.Fatalf("batch observations = %d, want 5", got)
	}
	if got := m.BatchRecords.Sum(); got != 15 {
		t.Fatalf("batch size sum = %d, want 15", got)
	}
	// Singleton batches count as commits too.
	if _, err := appendOne(s, ts, "single", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(s, ts, "single", 1); err != nil {
		t.Fatal(err)
	}
	if got := m.WALFsyncs.Value(); got != 3 {
		t.Fatalf("fsyncs after singleton batches = %d, want 3", got)
	}
}

// TestWALFsyncInterval verifies the time half of the policy: a dirty WAL
// is synced within the interval, and an idle store stops syncing.
func TestWALFsyncInterval(t *testing.T) {
	m := testMetrics()
	s, err := OpenCompacting("t", CompactConfig{
		Dir:          t.TempDir(),
		SegmentBytes: 1 << 20,
		Opts:         StoreOptions{Metrics: m, FsyncInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendBatch(time.Now(), batchOf(4, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.WALFsyncs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	// Idle: the dirty flag is spent, so further ticks must not fsync.
	base := m.WALFsyncs.Value()
	time.Sleep(30 * time.Millisecond)
	if got := m.WALFsyncs.Value(); got != base {
		t.Fatalf("idle store kept fsyncing: %d -> %d", base, got)
	}
}

// TestRecoveryMetrics verifies reopen-time counters: segments recovered
// by metadata and records replayed from the surviving WAL.
func TestRecoveryMetrics(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Now()
	if _, err := s.AppendBatch(ts, batchOf(40, 1)); err != nil { // forces ≥1 seal at 256B
		t.Fatal(err)
	}
	if _, err := appendOne(s, ts, "tail line kept hot", 2); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	m := testMetrics()
	re, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 256, Opts: StoreOptions{Metrics: m}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := m.RecoveredSegments.Value(); got == 0 {
		t.Fatal("no recovered segments counted")
	}
	if got := m.RecoveredRecords.Value(); got == 0 {
		t.Fatal("no replayed WAL records counted")
	}
	if re.Len() != 41 {
		t.Fatalf("recovered %d records, want 41", re.Len())
	}
}
