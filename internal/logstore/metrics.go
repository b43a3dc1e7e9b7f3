package logstore

import (
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/obs"
)

// StoreOptions carries cross-cutting store tuning that every store kind
// accepts: the metrics handle bundle, the WAL fsync policy, the
// filesystem seam, and the seal retry/degraded-mode policy. The zero
// value is fully functional (no metrics, real filesystem, fsync only on
// seal/Flush/Close — the historical behavior).
type StoreOptions struct {
	// Metrics receives the store's counters; nil means no instrumentation
	// (every instrument method on a nil handle or field is a no-op).
	Metrics *Metrics
	// FsyncEveryBatches, when > 0, fsyncs the hot WAL after every N
	// AppendBatch commits, bounding the unsynced window by work done.
	FsyncEveryBatches int
	// FsyncInterval, when > 0, runs a background flush loop syncing the
	// hot WAL every interval when appends happened since the last sync,
	// bounding the unsynced window by wall clock.
	FsyncInterval time.Duration
	// FS is the filesystem every store write goes through; nil means the
	// real filesystem (fsx.OS()). Tests swap in an fsx.FaultFS.
	FS fsx.FS
	// SealRetryBase is the first backoff after a failed seal attempt
	// (doubling up to SealRetryMax); ≤ 0 means 50ms.
	SealRetryBase time.Duration
	// SealRetryMax caps the seal retry backoff; ≤ 0 means 2s.
	SealRetryMax time.Duration
	// SealMaxRetries is how many times a failing seal is retried before
	// the store degrades to read-only; ≤ 0 means 4, < 0 via -1 means 0.
	SealMaxRetries int
	// ProbeInterval is how often a degraded store re-probes the disk to
	// re-arm writes; ≤ 0 means 2s.
	ProbeInterval time.Duration
}

// withMetrics defaults Metrics so store internals never nil-check the
// bundle itself (individual instruments stay nil-safe no-ops), and
// fills the filesystem and degraded-mode policy defaults.
func (o StoreOptions) withMetrics() StoreOptions {
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	o.FS = fsx.OrOS(o.FS)
	if o.SealRetryBase <= 0 {
		o.SealRetryBase = 50 * time.Millisecond
	}
	if o.SealRetryMax <= 0 {
		o.SealRetryMax = 2 * time.Second
	}
	if o.SealMaxRetries == 0 {
		o.SealMaxRetries = 4
	} else if o.SealMaxRetries < 0 {
		o.SealMaxRetries = 0
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	return o
}

// Metrics is the instrument bundle the logstore layer observes into. The
// service layer (or any embedder) resolves the instruments against its
// registry and hands the bundle in via StoreOptions; any nil field simply
// records nothing. One bundle instruments one topic's store.
type Metrics struct {
	// WAL write path.
	WALAppendRecords   *obs.Counter   // records fully written to a WAL
	WALAppendBytes     *obs.Counter   // bytes those records occupy (header+payload)
	WALFsyncs          *obs.Counter   // successful fsyncs
	WALFsyncErrors     *obs.Counter   // failed flush/fsync attempts
	WALFsyncSeconds    *obs.Histogram // fsync latency
	WALPoisonRotations *obs.Counter   // blocks retired after a WAL write failure

	// Recovery (open-time) path.
	RecoveredSegments *obs.Counter // sealed segments loaded by metadata
	RecoveredRecords  *obs.Counter // records replayed from surviving WALs
	WALTornTails      *obs.Counter // WALs truncated at a torn record

	// Compaction.
	BatchRecords    *obs.Histogram // AppendBatch size distribution
	Seals           *obs.Counter   // blocks sealed into segments
	SealSeconds     *obs.Histogram // seal (encode+write) latency
	SealRetries     *obs.Counter   // failed seal attempts that were retried
	SealWaits       *obs.Counter   // appends that waited for a full seal queue
	SealWaitSeconds *obs.Histogram // how long each of those appends waited
	DegradedEnters  *obs.Counter   // transitions into degraded read-only mode

	// Query pushdown, counted in one place — the read fan-out every
	// CompactingStore query goes through: each sealed-block visit either
	// decodes the payload (the segment's own BlockReads counter) or is
	// answered from metadata alone — counted here. GetBatch visits only
	// the blocks that hold its offsets, and decodes each of them.
	BlocksPruned *obs.Counter
	// SegmentReadErrors counts sealed-block visits whose payload failed
	// to decode. Queries cannot return errors through the Store
	// interface: they skip the block, so a result may be partial.
	// GetBatch fails instead.
	SegmentReadErrors *obs.Counter
}
