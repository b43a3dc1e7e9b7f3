package logstore

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/fsx"
)

// The crash-point matrix drives one deterministic store lifecycle —
// ingest, seal, more ingest, model checkpoints, close — over a
// fault-injecting filesystem, counts every filesystem operation it
// performs, and then re-runs the whole lifecycle once per operation
// index with a fault injected exactly there: a simulated power cut
// (unsynced bytes vanish, the store reopens from the crash image) and a
// transient ENOSPC. After every run the invariants are the same:
//
//   - reopening never fails unrecoverably,
//   - every acked record (append AND Flush both reported success)
//     survives replay,
//   - no record is duplicated and no phantom records appear,
//   - the latest recoverable model snapshot is intact, never torn.
//
// Every op index is swept: the workload is small and deterministic, so
// the full sweep takes a fraction of a second.

// crashStoreOpts returns tight, deterministic store options for matrix
// runs: fsync after every batch would hide interesting orderings, so
// durability acks come from explicit Flush calls instead; retries are
// short so a downed filesystem degrades (and Close terminates) fast;
// the background probe is parked — the matrix reopens explicitly.
func crashStoreOpts(fsys fsx.FS) StoreOptions {
	return StoreOptions{
		FS:             fsys,
		SealRetryBase:  time.Millisecond,
		SealRetryMax:   2 * time.Millisecond,
		SealMaxRetries: 1,
		ProbeInterval:  time.Hour,
	}
}

// crashRun is what one workload execution observed: which records and
// snapshots the store acked as durable, and everything it attempted.
type crashRun struct {
	acked     []string       // append + Flush both succeeded
	attempted []string       // every record handed to AppendBatch
	ackedSnap int            // highest snapshot index AppendSnapshot acked (-1: none)
	snaps     map[int]string // payload written per snapshot attempt
}

func crashSnapPayload(i int) string {
	return strings.Repeat(fmt.Sprintf("model-%d|", i), 32)
}

// runCrashWorkload drives the lifecycle against fsys rooted at dir.
// Fault injection makes every step fallible, so errors are recorded
// rather than fatal — what matters is what the post-fault reopen
// recovers relative to what was acked.
func runCrashWorkload(fsys fsx.FS, dir string) crashRun {
	run := crashRun{ackedSnap: -1, snaps: map[int]string{}}
	st, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 20, Opts: crashStoreOpts(fsys)})
	if err != nil {
		return run
	}
	defer st.Close()
	internal, internalErr := OpenDiskInternalFS(fsys, filepath.Join(dir, "models"))

	next := 0
	appendBatch := func(n int) {
		recs := make([]BatchRecord, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, BatchRecord{Raw: fmt.Sprintf("rec-%06d", next), TemplateID: uint64(1 + next%3)})
			run.attempted = append(run.attempted, recs[i].Raw)
			next++
		}
		if _, err := st.AppendBatch(ts(next), recs); err != nil {
			return
		}
		if err := st.Flush(); err != nil {
			return
		}
		for _, r := range recs {
			run.acked = append(run.acked, r.Raw)
		}
	}
	seal := func() {
		if err := st.Seal(); err == nil {
			st.WaitIdle()
		}
	}
	snapshot := func(i int) {
		if internalErr != nil {
			return
		}
		payload := crashSnapPayload(i)
		run.snaps[i] = payload
		if err := internal.AppendSnapshot(ts(i), []byte(payload)); err == nil {
			run.ackedSnap = i
		}
	}

	appendBatch(4)
	appendBatch(3)
	seal()
	snapshot(0)
	appendBatch(5)
	seal()
	snapshot(1)
	appendBatch(2)
	return run
}

// verifyCrashRecovery reopens everything after the fault and checks the
// acked⇒durable contract. label names the fault for failure messages.
func verifyCrashRecovery(t *testing.T, label string, fsys *fsx.FaultFS, dir string, run crashRun) {
	t.Helper()
	if fsys.Down() {
		fsys.Restart()
	}
	st, err := OpenCompacting("t", CompactConfig{Dir: dir, SegmentBytes: 1 << 20, Opts: crashStoreOpts(fsys)})
	if err != nil {
		t.Fatalf("%s: reopen failed unrecoverably: %v\nsurviving files: %v", label, err, fsys.DumpPaths())
	}
	attempted := make(map[string]bool, len(run.attempted))
	for _, raw := range run.attempted {
		attempted[raw] = true
	}
	seen := map[string]int{}
	for _, r := range allRecords(t, st) {
		seen[r.Raw]++
	}
	for raw, n := range seen {
		if n > 1 {
			t.Errorf("%s: record %q recovered %d times (duplicate)", label, raw, n)
		}
		if !attempted[raw] {
			t.Errorf("%s: phantom record %q recovered but never appended", label, raw)
		}
	}
	for _, raw := range run.acked {
		if seen[raw] == 0 {
			t.Errorf("%s: acked record %q lost\nsurviving files: %v", label, raw, fsys.DumpPaths())
		}
	}
	if err := st.Close(); err != nil {
		t.Errorf("%s: close after recovery: %v", label, err)
	}

	internal, err := OpenDiskInternalFS(fsys, filepath.Join(dir, "models"))
	if err != nil {
		t.Fatalf("%s: reopen internal: %v", label, err)
	}
	data, err := internal.LatestSnapshot()
	if run.ackedSnap >= 0 && err != nil {
		t.Errorf("%s: acked snapshot %d lost: %v", label, run.ackedSnap, err)
	}
	if err == nil {
		// Whatever snapshot recovery serves must be byte-identical to
		// one that was written — a torn checkpoint must never surface.
		intact := false
		for _, p := range run.snaps {
			if string(data) == p {
				intact = true
				break
			}
		}
		if !intact {
			t.Errorf("%s: recovered snapshot is torn (%d bytes)", label, len(data))
		}
	}
}

func TestCrashMatrix(t *testing.T) {
	// Baseline: a faultless run sizes the matrix and proves the workload
	// itself acks everything.
	base := fsx.NewFaultFS()
	base.StrictDirs = true
	run := runCrashWorkload(base, "/data")
	n := base.Ops()
	if len(run.acked) != len(run.attempted) || len(run.attempted) == 0 {
		t.Fatalf("faultless run acked %d of %d records", len(run.acked), len(run.attempted))
	}
	if run.ackedSnap != 1 {
		t.Fatalf("faultless run acked snapshot %d, want 1", run.ackedSnap)
	}
	verifyCrashRecovery(t, "faultless", base, "/data", run)

	for k := int64(1); k <= n; k++ {
		// Power cut at op k: unsynced bytes vanish, then the machine
		// restarts and the store must reopen from the crash image.
		fsys := fsx.NewFaultFS()
		fsys.StrictDirs = true
		fsys.CrashAt(k)
		run := runCrashWorkload(fsys, "/data")
		verifyCrashRecovery(t, fmt.Sprintf("power cut at op %d", k), fsys, "/data", run)

		// Transient disk-full at op k: the op fails with ENOSPC, the
		// disk stays up, and the store must shed or degrade without
		// losing anything it acked.
		fsys = fsx.NewFaultFS()
		fsys.StrictDirs = true
		fsys.FailAt(k, fsx.ErrNoSpace)
		run = runCrashWorkload(fsys, "/data")
		verifyCrashRecovery(t, fmt.Sprintf("ENOSPC at op %d", k), fsys, "/data", run)
	}
}

// TestCrashDuringRecovery arms a second power cut that lands inside the
// post-crash recovery scan itself: the reopen fails, the machine
// restarts again, and the third open must succeed with nothing acked
// lost.
func TestCrashDuringRecovery(t *testing.T) {
	fsys := fsx.NewFaultFS()
	fsys.StrictDirs = true
	run := runCrashWorkload(fsys, "/data")
	if len(run.acked) == 0 {
		t.Fatal("workload acked nothing")
	}
	// Sweep every op of the recovery itself: reopen with a crash armed
	// at (post-workload) index k, restart, then verify.
	start := fsys.Ops()
	st, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 1 << 20, Opts: crashStoreOpts(fsys)})
	if err != nil {
		t.Fatalf("faultless reopen: %v", err)
	}
	st.Close()
	recoveryOps := fsys.Ops() - start
	for i := int64(1); i <= recoveryOps; i++ {
		k := fsys.Ops() + i
		fsys.CrashAt(k)
		if st, err := OpenCompacting("t", CompactConfig{Dir: "/data", SegmentBytes: 1 << 20, Opts: crashStoreOpts(fsys)}); err == nil {
			st.Close()
		}
		verifyCrashRecovery(t, fmt.Sprintf("power cut during recovery (op +%d)", i), fsys, "/data", run)
	}
}
