package logstore

import "testing"

func TestDiskInternalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in, err := OpenDiskInternal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.LatestSnapshot(); err != ErrNoSnapshot {
		t.Fatalf("empty LatestSnapshot = %v", err)
	}
	if err := in.AppendSnapshot(ts(1), []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := in.AppendSnapshot(ts(2), []byte("m2")); err != nil {
		t.Fatal(err)
	}
	data, err := in.LatestSnapshot()
	if err != nil || string(data) != "m2" {
		t.Fatalf("LatestSnapshot = %q, %v", data, err)
	}
	// Reopen counts existing snapshots and continues.
	in2, err := OpenDiskInternal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if retained, written := in2.Snapshots(); retained != 2 || written != 2 {
		t.Fatalf("reopened Snapshots = %d retained, %d written", retained, written)
	}
	if err := in2.AppendSnapshot(ts(3), []byte("m3")); err != nil {
		t.Fatal(err)
	}
	data, _ = in2.LatestSnapshot()
	if string(data) != "m3" {
		t.Errorf("after reopen append: %q", data)
	}
}

func TestNewStoreInMemory(t *testing.T) {
	s := NewStore("mem")
	off, err := appendOne(s, ts(1), "hello world", 7)
	if err != nil || off != 0 {
		t.Fatalf("Append = %d, %v", off, err)
	}
	if s.Len() != 1 || s.Bytes() != 11 {
		t.Errorf("Len/Bytes = %d/%d", s.Len(), s.Bytes())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}
