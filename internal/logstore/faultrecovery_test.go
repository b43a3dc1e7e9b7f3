package logstore

import (
	"testing"

	"bytebrain/internal/fsx"
	"bytebrain/internal/segment"
)

// A regression test for a fault recovery behavior the crash matrix
// covers only probabilistically: orphaned tmp cleanup.

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
