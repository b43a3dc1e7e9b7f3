package logstore

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/segment"
)

// Offset namespacing for sharded topics: a global offset packs the shard
// ID into the high bits above the shard-local dense offset, so every
// query can route by shard without a lookup table and recovery keeps
// offsets stable as long as the shard count does not change.
const (
	// shardShift is the bit position of the shard ID inside a global
	// offset: global = shard<<shardShift | local.
	shardShift = 48
	// shardLocalMask extracts the shard-local offset.
	shardLocalMask = int64(1)<<shardShift - 1
	// MaxShards bounds the shard count so shard IDs fit the bits above
	// shardShift in a non-negative int64.
	MaxShards = 1 << (63 - shardShift)

	shardDirPrefix = "shard-"
)

// ShardConfig tunes OpenSharded.
type ShardConfig struct {
	// Shards is the sub-store count, in [1, MaxShards].
	Shards int
	// Dir, when set, persists each shard under Dir/shard-<i>.
	Dir string
	// SegmentBytes is the raw size at which each shard seals its hot
	// block (0 means the 4 MiB default). Every shard is a
	// CompactingStore, persistent under Dir or in memory without it.
	SegmentBytes int64
	// Codec compresses sealed payloads.
	Codec segment.Codec
	// Opts carries the metrics bundle and WAL fsync policy, shared by
	// every shard (their counters aggregate into one topic's totals).
	Opts StoreOptions
}

// ShardedStore fans one topic out over N compacting stores so concurrent
// appends spread over N store mutexes: AppendBatch partitions every batch
// round-robin and hands each shard its sub-batch in one group commit.
// Offsets are namespaced shard<<48|local; reads route by the high bits
// and grouped queries merge per-shard results. Global offset order is
// shard-major (all of shard 0's offsets sort below shard 1's), and
// records from different shards interleave in time — callers already
// tolerate both, exactly as they do for concurrent ingest calls.
type ShardedStore struct {
	name   string
	m      *Metrics // never nil; per-shard append counters
	shards []*CompactingStore
	next   atomic.Uint64 // round-robin cursor of AppendBatch
}

var _ Store = (*ShardedStore)(nil)

// OpenSharded opens a sharded store, building (and with Dir set,
// recovering) every shard. It refuses directories persisted with a
// different layout: unsharded store files in Dir, or shard directories
// at indexes the requested shard count would hide.
func OpenSharded(name string, cfg ShardConfig) (*ShardedStore, error) {
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("logstore: sharded open %s: shard count %d outside [1,%d]", name, cfg.Shards, MaxShards)
	}
	cfg.Opts = cfg.Opts.withMetrics()
	if cfg.Dir != "" {
		if err := checkShardLayout(cfg.Opts.FS, cfg.Dir, cfg.Shards); err != nil {
			return nil, err
		}
	}
	s := &ShardedStore{name: name, m: cfg.Opts.Metrics, shards: make([]*CompactingStore, cfg.Shards)}
	for i := range s.shards {
		sub, err := openShard(name, i, cfg)
		if err != nil {
			for _, prev := range s.shards[:i] {
				prev.Close()
			}
			// Name the failing shard: "open failed" without the shard
			// index sends an operator hunting through N directories.
			return nil, fmt.Errorf("logstore: sharded open %s: shard %03d: %w", name, i, err)
		}
		s.shards[i] = sub
	}
	return s, nil
}

// checkShardLayout guards against silently hiding records behind a
// layout change: Dir must hold only shard-<i> directories with i below
// the configured shard count.
func checkShardLayout(fsys fsx.FS, dir string, shards int) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("logstore: sharded open %s: %w", dir, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("logstore: sharded list %s: %w", dir, err)
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() {
			if strings.HasSuffix(n, legacySuffix) || strings.HasSuffix(n, sealedSuffix) || strings.HasSuffix(n, walSuffix) {
				return fmt.Errorf("logstore: sharded open %s: found unsharded store file %s; this topic was persisted unsharded (set TopicShards back to 1, or use a fresh data dir)", dir, n)
			}
			continue
		}
		if !strings.HasPrefix(n, shardDirPrefix) {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(n, shardDirPrefix+"%d", &i); err == nil && i >= shards {
			return fmt.Errorf("logstore: sharded open %s: found %s but only %d shards configured; a lower shard count would hide its records (restore the shard count, or use a fresh data dir)", dir, n, shards)
		}
	}
	return nil
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%03d", shardDirPrefix, i))
}

// openShard builds one sub-store.
func openShard(name string, i int, cfg ShardConfig) (*CompactingStore, error) {
	dir := ""
	if cfg.Dir != "" {
		dir = shardDir(cfg.Dir, i)
	}
	return OpenCompacting(name, CompactConfig{Dir: dir, SegmentBytes: cfg.SegmentBytes, Codec: cfg.Codec, Opts: cfg.Opts})
}

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// shardDegraded reports whether shard i has degraded to read-only.
func (s *ShardedStore) shardDegraded(i int) bool {
	deg, _ := s.shards[i].Degraded()
	return deg
}

// AppendBatch implements Store: the batch is partitioned round-robin
// (one cursor step per record, continuing across calls, so the routing —
// and with it every offset — depends only on the record sequence, not on
// how it is cut into batches), then each shard receives its sub-batch
// through one group-committed AppendBatch call. A degraded shard's picks
// go to the next healthy sibling: a single full disk must not wedge
// writes that other shards can still take; when every shard is degraded
// ErrDegraded surfaces. On error some shards may have admitted their
// sub-batch (or a prefix of it) and others not, so — unlike single-store
// AppendBatch — the admitted records are NOT necessarily a prefix of the
// batch: surviving records can interleave with lost ones. The returned
// error reports the first failure.
func (s *ShardedStore) AppendBatch(ts time.Time, recs []BatchRecord) (int64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	n := len(s.shards)
	if n == 1 {
		return s.appendShard(0, ts, recs)
	}
	start := s.next.Add(uint64(len(recs))) - uint64(len(recs))
	// Snapshot degraded flags once per batch (not per record — Degraded
	// takes the shard's mutex) and remap degraded picks to the next
	// healthy shard.
	route := make([]int, n)
	for i := range route {
		route[i] = i
	}
	for i := 0; i < n; i++ {
		if s.shardDegraded(i) {
			route[i] = -1
		}
	}
	for i := 0; i < n; i++ {
		if route[i] >= 0 {
			continue
		}
		for off := 1; off < n; off++ {
			if j := (i + off) % n; route[j] == j {
				route[i] = j
				break
			}
		}
		if route[i] < 0 {
			route[i] = i // every shard degraded: let ErrDegraded surface
		}
	}
	parts := make([][]BatchRecord, n)
	for i, r := range recs {
		sh := route[int((start+uint64(i))%uint64(n))]
		parts[sh] = append(parts[sh], r)
	}
	firstShard := route[int(start%uint64(n))]
	var first int64
	for k := 0; k < n; k++ {
		if len(parts[k]) == 0 {
			continue
		}
		off, err := s.appendShard(k, ts, parts[k])
		if err != nil {
			return 0, err
		}
		if k == firstShard {
			first = off
		}
	}
	return first, nil
}

// appendShard group-commits a whole batch into one specific shard and
// returns the namespaced global offset of its first record: one
// sub-store AppendBatch call.
func (s *ShardedStore) appendShard(shard int, ts time.Time, recs []BatchRecord) (int64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return 0, fmt.Errorf("logstore: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	if len(recs) == 0 {
		return 0, nil
	}
	local, err := s.shards[shard].AppendBatch(ts, recs)
	if err != nil {
		return 0, err
	}
	s.m.shardAppend(shard, int64(len(recs)))
	if local+int64(len(recs))-1 > shardLocalMask {
		return 0, fmt.Errorf("logstore: shard %d local offset %d overflows the %d-bit namespace", shard, local+int64(len(recs))-1, shardShift)
	}
	return int64(shard)<<shardShift | local, nil
}

// Len implements Store: the total record count across shards.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sub := range s.shards {
		n += sub.Len()
	}
	return n
}

// Bytes implements Store.
func (s *ShardedStore) Bytes() int64 {
	var n int64
	for _, sub := range s.shards {
		n += sub.Bytes()
	}
	return n
}

// GetBatch implements Store: offsets are partitioned per shard so each
// shard sees one dense GetBatch call (and pays its block-grouping win),
// then results are reassembled in input order with global offsets.
func (s *ShardedStore) GetBatch(offsets []int64) ([]Record, error) {
	if len(offsets) == 0 {
		return nil, nil
	}
	perShard := make(map[int][]int64) // shard → local offsets
	positions := make(map[int][]int)  // shard → positions in offsets
	for pos, off := range offsets {
		shard := int(off >> shardShift)
		if off < 0 || shard >= len(s.shards) {
			return nil, fmt.Errorf("logstore: offset %d outside the %d-shard namespace", off, len(s.shards))
		}
		perShard[shard] = append(perShard[shard], off&shardLocalMask)
		positions[shard] = append(positions[shard], pos)
	}
	out := make([]Record, len(offsets))
	for shard, local := range perShard {
		recs, err := s.shards[shard].GetBatch(local)
		if err != nil {
			return nil, err
		}
		base := int64(shard) << shardShift
		for i, rec := range recs {
			rec.Offset = base + local[i]
			out[positions[shard][i]] = rec
		}
	}
	return out, nil
}

// Scan implements Store, visiting shards in ascending namespace order
// (all of shard i before shard i+1) with offsets rewritten to the global
// namespace; [from, to) are global offsets and tr prunes inside each
// shard.
func (s *ShardedStore) Scan(from, to int64, tr TimeRange, fn func(Record) bool) {
	if from < 0 {
		from = 0
	}
	for i, sub := range s.shards {
		base := int64(i) << shardShift
		if to >= 0 && base >= to {
			return
		}
		lo := from - base
		if lo > shardLocalMask {
			continue // from is entirely past this shard's namespace
		}
		if lo < 0 {
			lo = 0
		}
		hi := int64(-1)
		if to >= 0 && to-base <= shardLocalMask {
			hi = to - base
		}
		stop := false
		sub.Scan(lo, hi, tr, func(r Record) bool {
			r.Offset += base
			if !fn(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// ByTemplateRange implements Store; tr pushes down into each shard's own
// pruning. Per-shard results are ascending and the namespace is
// shard-major, so concatenation in shard order is globally ascending.
func (s *ShardedStore) ByTemplateRange(tr TimeRange, ids ...uint64) []int64 {
	var out []int64
	for i, sub := range s.shards {
		base := int64(i) << shardShift
		for _, off := range sub.ByTemplateRange(tr, ids...) {
			out = append(out, base+off)
		}
	}
	return out
}

// TemplateCounts implements Store, merging per-shard counts; tr pushes
// down into each shard's own pruning.
func (s *ShardedStore) TemplateCounts(tr TimeRange) map[uint64]int {
	out := make(map[uint64]int)
	for _, sub := range s.shards {
		for id, n := range sub.TemplateCounts(tr) {
			out[id] += n
		}
	}
	return out
}

// GroupedCounts implements Store, merging per-shard groups; tr pushes
// down into each shard's own pruning. Shards are visited in namespace
// order, so the samples kept are the lowest global offsets.
func (s *ShardedStore) GroupedCounts(maxSamples int, tr TimeRange) map[uint64]TemplateGroup {
	out := make(map[uint64]TemplateGroup)
	for i, sub := range s.shards {
		base := int64(i) << shardShift
		for id, g := range sub.GroupedCounts(maxSamples, tr) {
			agg := out[id]
			agg.Count += g.Count
			for _, off := range g.Samples {
				if len(agg.Samples) >= maxSamples {
					break
				}
				agg.Samples = append(agg.Samples, base+off)
			}
			out[id] = agg
		}
	}
	return out
}

// SearchRange implements Store, concatenating per-shard results in
// namespace order (see ByTemplateRange); tr pushes down into each shard's
// own pruning.
func (s *ShardedStore) SearchRange(token string, tr TimeRange) []int64 {
	var out []int64
	for i, sub := range s.shards {
		base := int64(i) << shardShift
		for _, off := range sub.SearchRange(token, tr) {
			out = append(out, base+off)
		}
	}
	return out
}

// Close implements Store, closing every shard and returning the first
// error.
func (s *ShardedStore) Close() error {
	var firstErr error
	for _, sub := range s.shards {
		if err := sub.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Seal fans the forced-compaction request out to every shard.
func (s *ShardedStore) Seal() error {
	for _, sub := range s.shards {
		if err := sub.Seal(); err != nil {
			return err
		}
	}
	return nil
}

// WaitIdle blocks until every shard's sealer drains.
func (s *ShardedStore) WaitIdle() {
	for _, sub := range s.shards {
		sub.WaitIdle()
	}
}

// SealError returns the first shard's pending seal failure, if any.
func (s *ShardedStore) SealError() error {
	for _, sub := range s.shards {
		if err := sub.SealError(); err != nil {
			return err
		}
	}
	return nil
}

// SegmentStats merges compression counters across shards.
func (s *ShardedStore) SegmentStats() SegmentStats {
	var out SegmentStats
	for _, sub := range s.shards {
		st := sub.SegmentStats()
		out.Segments += st.Segments
		out.SealedRecords += st.SealedRecords
		out.HotRecords += st.HotRecords
		out.RawBytes += st.RawBytes
		out.CompressedBytes += st.CompressedBytes
		out.BlockReads += st.BlockReads
		out.Codec = st.Codec
	}
	return out
}

// Degraded implements Store: the sharded store is degraded only when
// EVERY shard has degraded — while any healthy shard remains,
// AppendBatch routes around the sick ones and ingest stays available. The
// error reported is the first degraded shard's cause, annotated with
// its index.
func (s *ShardedStore) Degraded() (bool, error) {
	var firstErr error
	for i, sub := range s.shards {
		deg, err := sub.Degraded()
		if !deg {
			return false, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard %03d: %w", i, err)
		}
	}
	return true, firstErr
}

// DegradedShards counts shards currently in degraded read-only mode.
func (s *ShardedStore) DegradedShards() int {
	n := 0
	for i := range s.shards {
		if s.shardDegraded(i) {
			n++
		}
	}
	return n
}

// Flush forces buffered WAL bytes to the OS on every shard.
func (s *ShardedStore) Flush() error {
	for _, sub := range s.shards {
		if err := sub.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ShardStat is one shard's contribution to a sharded topic, surfaced in
// the service's /stats breakdown.
type ShardStat struct {
	// Shard is the shard index (the high offset bits).
	Shard int
	// Records and Bytes count the shard's stored records and raw payload.
	Records int
	Bytes   int64
	// Segment-store counters: sealed blocks, their records, the records
	// still hot, and the sealed blocks' encoded size.
	Segments        int   `json:",omitempty"`
	SealedRecords   int   `json:",omitempty"`
	HotRecords      int   `json:",omitempty"`
	CompressedBytes int64 `json:",omitempty"`
	// Degraded marks a shard that has entered read-only mode (disk
	// full or persistent seal failure); AppendBatch routes around it
	// while it lasts.
	Degraded bool `json:",omitempty"`
}

// ShardStats reports per-shard counters, index-ascending.
func (s *ShardedStore) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sub := range s.shards {
		st := ShardStat{Shard: i, Records: sub.Len(), Bytes: sub.Bytes()}
		st.Degraded = s.shardDegraded(i)
		sst := sub.SegmentStats()
		st.Segments = sst.Segments
		st.SealedRecords = sst.SealedRecords
		st.HotRecords = sst.HotRecords
		st.CompressedBytes = sst.CompressedBytes
		out[i] = st
	}
	return out
}
