package service

import (
	"fmt"
	"testing"
	"time"
)

func segmentConfig(dataDir string) Config {
	return Config{
		TrainVolume:  1 << 30,
		SegmentBytes: 8 << 10,
		SegmentCodec: "flate",
		DataDir:      dataDir,
		Now:          func() time.Time { return time.Unix(1700000000, 0) },
	}
}

func segLines(n, start int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("session %d opened for user u%d from 10.0.0.%d", start+i, (start+i)%40, (start+i)%250)
	}
	return lines
}

// TestServiceSegmentStore runs the full service path on the compacting
// store: ingest, train, query, forced compaction, compression stats.
func TestServiceSegmentStore(t *testing.T) {
	svc := New(segmentConfig(""))
	defer svc.Close()
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1500, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1500, 1500)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatal(err)
	}
	stats, err := svc.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3000 {
		t.Fatalf("Records = %d", stats.Records)
	}
	if stats.Segments == 0 || stats.SegmentRecords != 3000 {
		t.Fatalf("segment stats: %+v", stats)
	}
	if stats.SegmentRatio <= 0 || stats.SegmentRatio >= 1 {
		t.Fatalf("SegmentRatio = %v", stats.SegmentRatio)
	}
	if stats.SegmentCodec != "flate" {
		t.Fatalf("SegmentCodec = %q", stats.SegmentCodec)
	}

	// Query still groups everything (records live in sealed segments).
	rows, err := svc.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Count
	}
	if total != 3000 {
		t.Fatalf("query covered %d records, want 3000", total)
	}
}

// TestServiceSegmentStorePersistence restarts a persistent segment-store
// service and checks records and model survive.
func TestServiceSegmentStorePersistence(t *testing.T) {
	dir := t.TempDir()
	svc := New(segmentConfig(dir))
	if err := svc.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("app", segLines(1200, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("app"); err != nil {
		t.Fatal(err)
	}
	before, err := svc.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(segmentConfig(dir))
	defer svc2.Close()
	if err := svc2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	after, err := svc2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != before.Records {
		t.Fatalf("recovered %d records, want %d", after.Records, before.Records)
	}
	if after.Segments != before.Segments {
		t.Fatalf("recovered %d segments, want %d", after.Segments, before.Segments)
	}
	if after.Templates == 0 {
		t.Fatal("model snapshot not recovered")
	}
	// The recovered matcher keeps assigning templates to new ingests.
	if err := svc2.Ingest("app", segLines(10, 1200)); err != nil {
		t.Fatal(err)
	}
	store, err := svc2.Store("app")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.GetBatch([]int64{1205})
	if err != nil || recs[0].TemplateID == 0 {
		t.Fatalf("post-recovery record %+v, %v (want nonzero template)", recs, err)
	}
}

// TestCompactRequiresSegmentStore: every topic has a segment store, so
// Compact succeeds on the default config; only an unknown topic fails.
func TestCompactRequiresSegmentStore(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.CreateTopic("plain"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("plain", genLines(50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Compact("plain"); err != nil {
		t.Fatalf("Compact on a default-config topic: %v", err)
	}
	if err := svc.Compact("ghost"); err == nil {
		t.Fatal("Compact on unknown topic should fail")
	}
}

func TestBadSegmentCodecRejected(t *testing.T) {
	svc := New(Config{SegmentBytes: 1 << 20, SegmentCodec: "bogus"})
	defer svc.Close()
	if err := svc.CreateTopic("app"); err == nil {
		t.Fatal("unknown codec must be rejected")
	}
}
