package logstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/segment"
)

// Regression tests for fault recovery behaviors the crash matrix covers
// only probabilistically: orphaned tmp cleanup, shard-naming on open
// failure, and a degraded shard staying out of its siblings' way.

// TestFaultRecoveryRemovesOrphanTmp plants stale *.tmp leftovers — a
// torn segment seal in the store dir and a torn model checkpoint in the
// snapshot dir — and asserts both recoveries delete them instead of
// letting interrupted writes accumulate forever.
func TestFaultRecoveryRemovesOrphanTmp(t *testing.T) {
	fsys := fsx.NewFaultFS()
	st, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 2048, Opts: StoreOptions{FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	fillCompacting(t, st, 10, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	internal, err := OpenDiskInternalFS(fsys, "/data/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := internal.AppendSnapshot(ts(0), []byte("model")); err != nil {
		t.Fatal(err)
	}

	segOrphan := "/data/" + sealedPrefix + "999999" + sealedSuffix + segment.TmpSuffix
	snapOrphan := "/data/models/model-999999.bin" + snapshotTmpSuffix
	for _, p := range []string{segOrphan, snapOrphan} {
		if err := fsys.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 2048, Opts: StoreOptions{FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 10 {
		t.Fatalf("recovered %d records, want 10", st2.Len())
	}
	in2, err := OpenDiskInternalFS(fsys, "/data/models")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := in2.LatestSnapshot(); err != nil || string(data) != "model" {
		t.Fatalf("LatestSnapshot = %q, %v", data, err)
	}
	for _, p := range []string{segOrphan, snapOrphan} {
		if _, err := fsys.Stat(p); err == nil {
			t.Errorf("orphan %s survived recovery", p)
		}
	}
}

// TestShardedOpenNamesFailingShard corrupts one shard's directory with a
// layout-conflicting file and asserts the open error names that shard —
// "open failed" without the index sends an operator hunting through N
// directories.
func TestShardedOpenNamesFailingShard(t *testing.T) {
	fsys := fsx.NewFaultFS()
	bad := shardDir("/data", 1)
	if err := fsys.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	// A legacy disk-topic record file inside a shard dir is a
	// layout conflict the shard's own open refuses.
	if err := fsys.WriteFile(filepath.Join(bad, legacyPrefix+"000000"+legacySuffix), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSharded("t", ShardConfig{Shards: 3, Dir: "/data", SegmentBytes: 2048, Opts: StoreOptions{FS: fsys}})
	if err == nil {
		t.Fatal("OpenSharded succeeded over a conflicting shard dir")
	}
	if !strings.Contains(err.Error(), "shard 001") {
		t.Fatalf("open error does not name the failing shard: %v", err)
	}
}

// TestDegradedShardRoutesAround fills one shard's disk and asserts the
// sharded store sheds only that shard: pinned appends to it fail with
// ErrDegraded, un-pinned appends route to the healthy sibling, queries
// keep answering over both shards' surviving records, and the store as a
// whole does not report degraded.
func TestDegradedShardRoutesAround(t *testing.T) {
	fsys := fsx.NewFaultFS()
	cfg := ShardConfig{Shards: 2, Dir: "/data", SegmentBytes: 1 << 20, Opts: StoreOptions{
		FS:                fsys,
		FsyncEveryBatches: 1,
		SealRetryBase:     time.Millisecond,
		SealRetryMax:      2 * time.Millisecond,
		SealMaxRetries:    1,
		ProbeInterval:     time.Hour,
	}}
	sh, err := OpenSharded("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Seed both shards while healthy.
	for i := 0; i < 4; i++ {
		if _, err := sh.appendShard(i%2, ts(i), []BatchRecord{{Raw: fmt.Sprintf("seed line %d", i), TemplateID: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	// Shard 0's disk fills: every write-side op under its directory
	// fails with ENOSPC.
	shard0 := shardDir("/data", 0)
	fsys.SetHook(func(op fsx.OpInfo) error {
		if !strings.HasPrefix(op.Path, shard0) {
			return nil
		}
		switch op.Kind {
		case fsx.OpWrite, fsx.OpSync, fsx.OpCreate, fsx.OpRename, fsx.OpSyncDir, fsx.OpWriteFile:
			return fsx.ErrNoSpace
		}
		return nil
	})

	// First pinned append is admitted (the swallowed fsync poisons the
	// WAL and flips the shard to degraded); the next fails fast.
	if _, err := sh.appendShard(0, ts(10), []BatchRecord{{Raw: "tipping append", TemplateID: 1}}); err != nil {
		t.Fatalf("tipping append: %v", err)
	}
	if _, err := sh.appendShard(0, ts(11), []BatchRecord{{Raw: "pinned after degrade", TemplateID: 1}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("pinned append to degraded shard: err = %v, want ErrDegraded", err)
	}
	if n := sh.DegradedShards(); n != 1 {
		t.Fatalf("DegradedShards = %d, want 1", n)
	}
	if deg, _ := sh.Degraded(); deg {
		t.Fatal("store reports fully degraded with a healthy shard remaining")
	}

	// Un-pinned appends must route around the sick shard.
	for i := 0; i < 6; i++ {
		off, err := appendOne(sh, ts(20+i), fmt.Sprintf("routed line %d", i), 1)
		if err != nil {
			t.Fatalf("un-pinned append %d: %v", i, err)
		}
		if shard := int(off >> shardShift); shard != 1 {
			t.Fatalf("un-pinned append %d landed on degraded shard %d", i, shard)
		}
	}
	if _, err := sh.AppendBatch(ts(30), []BatchRecord{{Raw: "batch a", TemplateID: 1}, {Raw: "batch b", TemplateID: 1}}); err != nil {
		t.Fatalf("un-pinned batch: %v", err)
	}

	// Queries keep answering over every shard's surviving records.
	if got := len(sh.SearchRange("seed", TimeRange{})); got != 4 {
		t.Fatalf("search over degraded store found %d seed records, want 4", got)
	}
	if got := len(sh.SearchRange("routed", TimeRange{})); got != 6 {
		t.Fatalf("search over degraded store found %d routed records, want 6", got)
	}
	stats := sh.ShardStats()
	if !stats[0].Degraded || stats[1].Degraded {
		t.Fatalf("ShardStats degraded flags = %v/%v, want true/false", stats[0].Degraded, stats[1].Degraded)
	}
	fsys.SetHook(nil)
}
