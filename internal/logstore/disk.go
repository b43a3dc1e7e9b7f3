package logstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bytebrain/internal/fsx"
)

// ErrNoSnapshot is returned by LatestSnapshot on an empty internal topic.
var ErrNoSnapshot = errors.New("logstore: no model snapshot")

// Retention bounds how many model snapshots the internal topic keeps.
// The zero value retains everything (the historical behavior); with
// Latest set, only the newest Latest snapshots survive each append, plus
// — when CheckpointEvery > 0 — every CheckpointEvery-th snapshot by
// write index as a sparse history of periodic checkpoints. Storage after
// n training cycles is therefore O(Latest + n/CheckpointEvery) instead
// of O(n).
type Retention struct {
	// Latest is how many of the newest snapshots to keep; 0 keeps all.
	Latest int
	// CheckpointEvery additionally keeps snapshots whose write index is
	// a multiple of it; 0 keeps none beyond Latest.
	CheckpointEvery int
}

// keep reports whether the snapshot at write index idx survives pruning
// when nextIdx is the index the next snapshot will get.
func (r Retention) keep(idx, nextIdx int) bool {
	if r.Latest <= 0 || idx >= nextIdx-r.Latest {
		return true
	}
	return r.CheckpointEvery > 0 && idx%r.CheckpointEvery == 0
}

// DiskInternal is the internal topic of §3: it persists model snapshots
// as numbered files in a directory, so a topic recovers its model on
// restart without an external database. Write indexes only ever grow —
// after pruning (SetRetention), the next index continues from the
// highest ever written, never reusing a number, so a checkpoint can
// never be silently overwritten by a later snapshot.
type DiskInternal struct {
	dir    string
	fs     fsx.FS
	mu     sync.Mutex
	idxs   []int // write indexes present on disk, ascending
	next   int   // strictly greater than every index ever written
	retain Retention
}

func snapshotPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("model-%06d.bin", idx))
}

// snapshotTmpSuffix marks an in-progress snapshot write; files carrying
// it are torn leftovers after a crash and are removed on open.
const snapshotTmpSuffix = ".tmp"

// OpenDiskInternal opens (or creates) the snapshot directory and indexes
// existing snapshots.
func OpenDiskInternal(dir string) (*DiskInternal, error) {
	return OpenDiskInternalFS(fsx.OS(), dir)
}

// OpenDiskInternalFS is OpenDiskInternal over an explicit filesystem
// seam. Stale snapshot temp files (a crash mid-checkpoint) are removed
// rather than accumulating forever.
func OpenDiskInternalFS(fsys fsx.FS, dir string) (*DiskInternal, error) {
	fsys = fsx.OrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: open internal %s: %w", dir, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	in := &DiskInternal{dir: dir, fs: fsys}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), snapshotTmpSuffix) {
			// Torn checkpoint write from a crash: never a valid snapshot.
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("logstore: open internal: remove stale %s: %w", e.Name(), err)
			}
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "model-%d.bin", &idx); err == nil &&
			strings.HasPrefix(e.Name(), "model-") && strings.HasSuffix(e.Name(), ".bin") {
			in.idxs = append(in.idxs, idx)
			if idx >= in.next {
				in.next = idx + 1
			}
		}
	}
	sort.Ints(in.idxs)
	return in, nil
}

// SetRetention installs a pruning policy and prunes existing on-disk
// snapshots immediately.
func (in *DiskInternal) SetRetention(r Retention) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.retain = r
	in.pruneLocked()
}

func (in *DiskInternal) pruneLocked() {
	kept := in.idxs[:0]
	for _, idx := range in.idxs {
		if in.retain.keep(idx, in.next) {
			kept = append(kept, idx)
			continue
		}
		// A failed remove keeps the index tracked; the next prune
		// retries instead of leaking the file forever.
		if err := in.fs.Remove(snapshotPath(in.dir, idx)); err != nil && !os.IsNotExist(err) {
			kept = append(kept, idx)
		}
	}
	in.idxs = kept
}

// AppendSnapshot writes one model snapshot file atomically (temp file,
// fsync, rename, directory fsync — a crash leaves either the previous
// checkpoint intact or the new one complete, never a torn file), then
// applies retention.
func (in *DiskInternal) AppendSnapshot(ts time.Time, data []byte) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	path := snapshotPath(in.dir, in.next)
	tmp := path + snapshotTmpSuffix
	f, err := in.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("logstore: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		in.fs.Remove(tmp)
		return fmt.Errorf("logstore: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		in.fs.Remove(tmp)
		return fmt.Errorf("logstore: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		in.fs.Remove(tmp)
		return fmt.Errorf("logstore: snapshot close: %w", err)
	}
	if err := in.fs.Rename(tmp, path); err != nil {
		in.fs.Remove(tmp)
		return fmt.Errorf("logstore: snapshot rename: %w", err)
	}
	if err := in.fs.SyncDir(in.dir); err != nil {
		return fmt.Errorf("logstore: snapshot sync dir: %w", err)
	}
	in.idxs = append(in.idxs, in.next)
	in.next++
	in.pruneLocked()
	return nil
}

// LatestSnapshot returns the newest snapshot bytes.
func (in *DiskInternal) LatestSnapshot() ([]byte, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.idxs) == 0 {
		return nil, ErrNoSnapshot
	}
	path := snapshotPath(in.dir, in.idxs[len(in.idxs)-1])
	data, err := in.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("logstore: read snapshot: %w", err)
	}
	return data, nil
}

// QuarantineLatest retires the newest snapshot (renaming the file to .bad
// on disk) so LatestSnapshot falls back to the previous checkpoint — the
// recovery path for a snapshot that no longer unmarshals. It reports
// ErrNoSnapshot when none is retained.
func (in *DiskInternal) QuarantineLatest() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.idxs) == 0 {
		return ErrNoSnapshot
	}
	idx := in.idxs[len(in.idxs)-1]
	path := snapshotPath(in.dir, idx)
	if err := in.fs.Rename(path, path+".bad"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("logstore: quarantine snapshot: %w", err)
	}
	in.idxs = in.idxs[:len(in.idxs)-1]
	return nil
}

// Snapshots returns how many snapshots are retained and how many were
// ever written: retention and quarantine lower the first, never the
// second.
func (in *DiskInternal) Snapshots() (retained, written int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.idxs), in.next
}
