package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/fsx"
)

func TestServicePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1700000000, 0)
	cfg := Config{
		Parser:        testConfig().Parser,
		TrainVolume:   1 << 30,
		TrainInterval: time.Hour,
		DataDir:       dir,
		Now:           func() time.Time { return now },
	}

	// First life: ingest, train, ingest more, shut down.
	s1 := New(cfg)
	if err := s1.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	lines := genLines(200, 1)
	if err := s1.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s1.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest("app", genLines(100, 2)); err != nil {
		t.Fatal(err)
	}
	rowsBefore, err := s1.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same DataDir — records and model recover.
	s2 := New(cfg)
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stats, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 300 {
		t.Fatalf("recovered %d records, want 300", stats.Records)
	}
	if stats.Templates == 0 || stats.Snapshots != 1 || stats.Trainings != 1 {
		t.Fatalf("model not recovered: %+v", stats)
	}
	rowsAfter, err := s2.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsAfter) != len(rowsBefore) {
		t.Errorf("query groups changed across restart: %d vs %d", len(rowsAfter), len(rowsBefore))
	}
	// The recovered matcher still matches known structures without
	// temporary insertion.
	if err := s2.Ingest("app", genLines(50, 3)); err != nil {
		t.Fatal(err)
	}
	stats2, _ := s2.TopicStats("app")
	if stats2.Records != 350 {
		t.Errorf("post-recovery ingest: %d records", stats2.Records)
	}
}

func TestServicePersistedFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.TrainVolume = 50
	s := New(cfg)
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(80, 1)); err != nil {
		t.Fatal(err)
	}
	// Training is asynchronous; wait for the volume-triggered cycle to
	// persist its model snapshot before shutting down.
	waitTrainings(t, s, "app", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		filepath.Join(dir, "app", "records", "wal-000000.log"),
		filepath.Join(dir, "app", "models", "model-000000.bin"),
	} {
		if !fileExists(want) {
			t.Errorf("expected persisted file %s", want)
		}
	}
}

// TestDataDirAloneIsCompacting: DataDir without SegmentBytes selects the
// compacting segment store at its default seal size, so a -data-dir-only
// service compacts on demand, reports segment stats and gauges, survives
// a restart, and writes wal-*.log / seg-*.bbsg — never the retired plain
// disk store's segment-*.log.
func TestDataDirAloneIsCompacting(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.TrainVolume = 1 << 30
	s := New(cfg)
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("app"); err != nil {
		t.Fatalf("Compact on a DataDir-only topic: %v", err)
	}
	if err := s.Ingest("app", genLines(50, 2)); err != nil { // stays hot, in the WAL
		t.Fatal(err)
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.SegmentRecords != 200 || stats.SegmentCompressedBytes == 0 || stats.SegmentCodec != "flate" {
		t.Fatalf("segment stats hidden or wrong after Compact: %+v", stats)
	}
	if _, vals := scrape(t, s.Handler()); vals[`bb_topic_segments{topic="app"}`] != 1 {
		t.Errorf(`bb_topic_segments{topic="app"} = %v, want 1`, vals[`bb_topic_segments{topic="app"}`])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	records := filepath.Join(dir, "app", "records")
	for pattern, want := range map[string]bool{"seg-*.bbsg": true, "wal-*.log": true, "segment-*.log": false} {
		got, err := filepath.Glob(filepath.Join(records, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if (len(got) > 0) != want {
			t.Errorf("%s: found %v, want present=%v", pattern, got, want)
		}
	}

	s2 := New(cfg)
	defer s2.Close()
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	after, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != 250 || after.Segments != 1 {
		t.Fatalf("after restart: %d records / %d segments, want 250 / 1", after.Records, after.Segments)
	}
}

// TestInMemoryDefaultIsCompacting: the zero Config (no DataDir, no
// SegmentBytes) runs the same compacting store in memory, so a default
// service compacts on demand and reports segment stats and gauges.
func TestInMemoryDefaultIsCompacting(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("app"); err != nil {
		t.Fatalf("Compact on a default-config topic: %v", err)
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.SegmentRecords != 200 || stats.SegmentCompressedBytes == 0 || stats.SegmentCodec != "flate" {
		t.Fatalf("segment stats hidden or wrong after Compact: %+v", stats)
	}
	if _, vals := scrape(t, s.Handler()); vals[`bb_topic_segments{topic="app"}`] != 1 {
		t.Errorf(`bb_topic_segments{topic="app"} = %v, want 1`, vals[`bb_topic_segments{topic="app"}`])
	}
}

// TestLegacyDiskTopicDirRefused: a topic directory written by a retired
// layout — the plain disk store's segment-NNNNNN.log record files, or the
// sharded store's shard-NNN subdirectories — must fail CreateTopic loudly,
// naming what it found, instead of opening empty over it.
func TestLegacyDiskTopicDirRefused(t *testing.T) {
	for name, tc := range map[string]struct {
		file string
		want string
	}{
		"unsharded": {filepath.Join("app", "records", "segment-000000.log"), "found legacy disk-topic file segment-000000.log"},
		"sharded":   {filepath.Join("app", "records", "shard-000", "wal-000000.log"), "found shard directory shard-000; this build no longer reads sharded topic layouts"},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.DataDir = t.TempDir()
			path := filepath.Join(cfg.DataDir, tc.file)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			// One record in the legacy disk-store format: time, template ID,
			// raw length, raw. The shard-directory guard refuses before reading.
			rec := append(make([]byte, 16), 3, 0, 0, 0, 'o', 'l', 'd')
			if err := os.WriteFile(path, rec, 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(cfg)
			defer s.Close()
			err := s.CreateTopic("app")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CreateTopic over a retired layout = %v, want a refusal containing %q", err, tc.want)
			}
		})
	}
}

func TestServiceRejectsPathTraversalTopicNames(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	s := New(cfg)
	for _, bad := range []string{"../evil", "a/b", `a\b`, "a b"} {
		if err := s.CreateTopic(bad); err == nil {
			t.Errorf("topic name %q accepted", bad)
		}
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestTrainingsSurviveRetention: Trainings counts cycles, not retained
// snapshots, so a reopen under SnapshotRetain reports every cycle that
// ran while Snapshots reports the files kept.
func TestTrainingsSurviveRetention(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.TrainVolume = 1 << 30
	cfg.SnapshotRetain = 2
	s1 := New(cfg)
	if err := s1.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s1.Ingest("app", genLines(50, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := s1.Train("app"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	defer s2.Close()
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	stats, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trainings != 6 || stats.Snapshots != 2 {
		t.Fatalf("after reopen: Trainings %d, Snapshots %d; want 6, 2", stats.Trainings, stats.Snapshots)
	}
}

// TestInMemoryTopicKeepsOnlyLiveModel: without DataDir nothing can read
// a snapshot back, so a topic keeps no snapshot store, however many
// cycles run; its published model is the only copy.
func TestInMemoryTopicKeepsOnlyLiveModel(t *testing.T) {
	cfg := testConfig()
	cfg.TrainVolume = 1 << 30
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Ingest("app", genLines(50, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := s.Train("app"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.topic("app")
	if err != nil {
		t.Fatal(err)
	}
	if st.internal != nil {
		t.Fatal("in-memory topic holds a snapshot store")
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	live, err := st.snap.Load().model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trainings != 4 || stats.Snapshots != 0 || stats.ModelBytes != len(live) {
		t.Fatalf("Trainings %d, Snapshots %d, ModelBytes %d; want 4, 0, %d",
			stats.Trainings, stats.Snapshots, stats.ModelBytes, len(live))
	}
}

const (
	quotaLine  = "disk quota exceeded on volume alpha"
	logoutLine = "user bob logged out of session"
)

// rowBy returns the query row that satisfies match, failing if none does.
func rowBy(t *testing.T, rows []TemplateRow, what string, match func(TemplateRow) bool) TemplateRow {
	t.Helper()
	for _, r := range rows {
		if match(r) {
			return r
		}
	}
	t.Fatalf("no row for %s in %+v", what, rows)
	return TemplateRow{}
}

// checkTemporaryIDAcrossRestart drives the restart scenario for a stored
// temporary template ID. Life one trains, then stores quotaLine under a
// temporary that lives only in the matcher's overlay; stop ends it (a
// clean Close or a power cut). Life two must not give that ID to a
// different template: logoutLine gets its own row, the lost temporary's
// record reads as unresolved, and quotaLine, ingested again, comes back
// under the same ID.
func checkTemporaryIDAcrossRestart(t *testing.T, cfg Config, stop func(*Service)) {
	t.Helper()
	s1 := New(cfg)
	if err := s1.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest("app", genLines(300, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest("app", []string{quotaLine}); err != nil {
		t.Fatal(err)
	}
	rows, err := s1.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	quota := rowBy(t, rows, "the quota line", func(r TemplateRow) bool { return r.Template == quotaLine })
	stop(s1)

	s2 := New(cfg)
	defer s2.Close()
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Ingest("app", []string{logoutLine}); err != nil {
		t.Fatal(err)
	}
	rows, err = s2.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	lost := rowBy(t, rows, "the lost temporary's ID", func(r TemplateRow) bool { return r.TemplateID == quota.TemplateID })
	if lost.Template != "(unresolved template id)" || lost.Count != 1 {
		t.Fatalf("lost temporary's row = %+v, want one unresolved record", lost)
	}
	logout := rowBy(t, rows, "the logout line", func(r TemplateRow) bool { return r.Template == logoutLine })
	if logout.TemplateID == quota.TemplateID || logout.Count != 1 {
		t.Fatalf("logout row = %+v shares the lost temporary's ID %d", logout, quota.TemplateID)
	}

	if err := s2.Ingest("app", []string{quotaLine}); err != nil {
		t.Fatal(err)
	}
	rows, err = s2.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	back := rowBy(t, rows, "the quota line's ID", func(r TemplateRow) bool { return r.TemplateID == quota.TemplateID })
	if back.Template != quotaLine || back.Count != 2 {
		t.Fatalf("re-ingested quota row = %+v, want %q with both records", back, quotaLine)
	}
}

func TestTemporaryIDAcrossRestart(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.TrainVolume = 1 << 30
	checkTemporaryIDAcrossRestart(t, cfg, func(s *Service) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTemporaryIDAcrossPowerCut: the same contract when life one ends in
// a power cut. Each batch's WAL write is fsynced before Ingest returns,
// so the quota record survives; the overlay does not.
func TestTemporaryIDAcrossPowerCut(t *testing.T) {
	fsys := fsx.NewFaultFS()
	cfg := testConfig()
	cfg.DataDir = "/data"
	cfg.FS = fsys
	cfg.WALFsyncEveryBatches = 1
	cfg.TrainVolume = 1 << 30
	checkTemporaryIDAcrossRestart(t, cfg, func(s *Service) {
		fsys.CrashAt(fsys.Ops() + 1)
		if _, err := fsys.Stat("/data"); !errors.Is(err, fsx.ErrPowerCut) {
			t.Fatalf("power cut did not fire: %v", err)
		}
		s.Close() // every write fails: the machine is off
		fsys.SetHook(nil)
		fsys.Restart()
	})
}
