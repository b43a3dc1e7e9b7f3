// Package logstore implements the append-only topic storage substrate of
// the paper's log service (§3): a log topic is the unit where records are
// indexed, stored, and made available for analysis. Records carry the
// template ID computed at ingestion (template IDs "must be computed along
// with other traditional text indices before logs can be written to the
// append-only log topic storage"), and an internal topic (DiskInternal)
// persists model snapshots next to a persistent topic's records.
package logstore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"bytebrain/internal/segment"
)

// Record is one stored log entry: its dense, zero-based topic offset,
// ingestion time, raw line and the template ID matched at ingestion. It is
// the segment layer's record, so hot and sealed blocks share one shape.
type Record = segment.Record

// BatchRecord is one record of an AppendBatch call: the raw line and the
// template ID computed at ingestion. Offsets and the shared batch
// timestamp are assigned by the store.
type BatchRecord struct {
	// Raw is the original log line.
	Raw string
	// TemplateID is the most precise template matched at ingestion.
	TemplateID uint64
}

// TimeRange bounds a query to records with From <= Time <= To, both ends
// inclusive. A zero From or To leaves that side unbounded, so the zero
// TimeRange matches every record; a range whose From is after its To is
// empty and matches nothing. Every query path pushes the range down as
// far as its storage allows: sealed segments prune whole blocks by their
// metadata time bounds and templates by per-template bounds, hot topics
// fall back to an index fast path when the range covers everything they
// hold and a linear filter otherwise.
type TimeRange struct {
	From time.Time
	To   time.Time
}

// IsZero reports whether both ends are unbounded (the match-all range).
func (tr TimeRange) IsZero() bool { return tr.From.IsZero() && tr.To.IsZero() }

// Empty reports whether the range can match no record at all.
func (tr TimeRange) Empty() bool {
	return !tr.From.IsZero() && !tr.To.IsZero() && tr.From.After(tr.To)
}

// Contains reports whether t lies inside the range.
func (tr TimeRange) Contains(t time.Time) bool {
	if !tr.From.IsZero() && t.Before(tr.From) {
		return false
	}
	if !tr.To.IsZero() && t.After(tr.To) {
		return false
	}
	return true
}

// Covers reports whether every instant of [min, max] lies inside the
// range — the "take the whole block from metadata" fast path.
func (tr TimeRange) Covers(min, max time.Time) bool {
	return !tr.Empty() && tr.Contains(min) && tr.Contains(max)
}

// Overlaps reports whether any instant of [min, max] lies inside the
// range; false prunes the whole block.
func (tr TimeRange) Overlaps(min, max time.Time) bool {
	if tr.Empty() {
		return false
	}
	if !tr.From.IsZero() && max.Before(tr.From) {
		return false
	}
	if !tr.To.IsZero() && min.After(tr.To) {
		return false
	}
	return true
}

// Store is the record-storage interface the service writes through; its
// one implementation is CompactingStore (in memory, or persistent under a
// directory), one per topic. Every method has a caller outside this
// package. Every store seals its hot blocks, so the seal-control surface
// (Compactor) and the degraded read-only state are part of the interface.
type Store interface {
	Compactor
	// AppendBatch group-commits a batch of records, all stamped with the
	// same timestamp, and returns the offset assigned to the first
	// record. It is the only way in: one lock acquisition, one
	// durability write and one index extension per batch, with hot-block
	// rotation handled mid-batch. It may first wait for the sealer: at
	// most two full blocks queue for sealing before appends wait. The
	// store does not retain recs after the call. On error a prefix of the
	// batch may have been admitted and the remainder was not. An empty
	// batch is a no-op returning (0, nil).
	AppendBatch(ts time.Time, recs []BatchRecord) (int64, error)
	// Len returns the record count.
	Len() int
	// Bytes returns the total raw payload size.
	Bytes() int64
	// GetBatch returns the records at offsets, in input order — the
	// offset-dense sample-fetch path. Stores that decode sealed blocks
	// group the offsets so each touched block is decoded once, not once
	// per offset. Any out-of-range offset fails the whole call.
	GetBatch(offsets []int64) ([]Record, error)
	// ByTemplateRange returns offsets of records with any of the template
	// IDs whose timestamp lies in tr (zero range = everything),
	// ascending. Sealed blocks outside tr are pruned by metadata time
	// bounds before any payload is read.
	ByTemplateRange(tr TimeRange, ids ...uint64) []int64
	// SearchRange returns offsets of records containing the exact token
	// whose timestamp lies in tr (zero range = everything), with the
	// same sealed-block time pruning as ByTemplateRange.
	SearchRange(token string, tr TimeRange) []int64
	// TemplateCounts returns record counts per template ID for records
	// in tr (zero range = everything): GroupedCounts without samples.
	TemplateCounts(tr TimeRange) map[uint64]int
	// GroupedCounts returns per-template record counts plus up to
	// maxSamples example offsets each for records in tr, served from
	// indexes and sealed metadata without reading record payloads where
	// the range allows — the grouped-query pushdown path. Sealed blocks
	// outside tr are pruned by metadata time bounds; only blocks the
	// range straddles are decompressed, and within them only templates
	// whose own time bounds straddle the boundary. Each block offers at
	// most five samples per template, so up to five the samples are the
	// earliest in-range offsets.
	GroupedCounts(maxSamples int, tr TimeRange) map[uint64]TemplateGroup
	// Degraded reports whether the store currently rejects appends
	// (disk full or persistent seal failure) and, if so, the failure
	// that drove it there.
	Degraded() (bool, error)
	// Close releases resources; further appends fail.
	Close() error
}

// Compactor is the seal-control surface every Store carries.
type Compactor interface {
	// Seal marks current hot blocks for compaction.
	Seal() error
	// WaitIdle blocks until no block is pending compaction.
	WaitIdle()
	// SealError returns the most recent background seal failure, if any.
	SealError() error
	// SegmentStats reports compression counters.
	SegmentStats() SegmentStats
}

// NewStore returns an in-memory compacting store with the default
// 4 MiB seal size: sealed blocks are kept as flate-compressed blobs in
// RAM.
func NewStore(name string) Store {
	s, _ := OpenCompacting(name, CompactConfig{Codec: segment.CodecFlate}) // cannot fail without a Dir
	return s
}

// topic is the hot block of a CompactingStore: an append-only record log
// with a template index, holding topic-global offsets from first on. It
// keeps no token index — token search scans the records, which a seal
// size bounds (4 MiB by default), so appends pay only for the template
// index. It answers the read path's questions in the shape of
// segment.Reader (see block); the decoded flag is always false, as no
// payload is ever decoded. All methods are safe for concurrent use.
type topic struct {
	first   int64 // offset of the first record; fixed at creation
	mu      sync.RWMutex
	records []Record
	byTmpl  map[uint64][]int64
	bytes   int64
	// minTime and maxTime are the low and high watermarks of appended
	// timestamps; together they let time-range queries take the index
	// fast path when the range covers everything the topic holds, and
	// return nothing when it overlaps none of it.
	minTime int64
	maxTime int64
}

// newTopic creates an empty topic whose first record gets offset first,
// with room for capacity records before its record slice regrows.
func newTopic(first int64, capacity int) *topic {
	return &topic{first: first, records: make([]Record, 0, capacity), byTmpl: make(map[uint64][]int64)}
}

// appendBatch stores a batch of records under one lock acquisition, all
// stamped with the same timestamp.
func (t *topic) appendBatch(ts time.Time, recs []BatchRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		t.appendLocked(ts, r.Raw, r.TemplateID)
	}
}

// appendLocked stores and indexes one record; callers hold mu.
func (t *topic) appendLocked(ts time.Time, raw string, templateID uint64) {
	off := t.first + int64(len(t.records))
	ns := ts.UnixNano()
	if len(t.records) == 0 || ns > t.maxTime {
		t.maxTime = ns
	}
	if len(t.records) == 0 || ns < t.minTime {
		t.minTime = ns
	}
	t.records = append(t.records, Record{Offset: off, Time: ts, Raw: raw, TemplateID: templateID})
	t.byTmpl[templateID] = append(t.byTmpl[templateID], off)
	t.bytes += int64(len(raw))
}

// FirstOffset returns the offset of the first record.
func (t *topic) FirstOffset() int64 { return t.first }

// Count returns the record count.
func (t *topic) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records)
}

// RawBytes returns the total raw payload size.
func (t *topic) RawBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// all returns every record, in offset order, without copying: records
// are append-only and never rewritten, so the slice stays valid while
// appends continue.
func (t *topic) all() []Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.records
}

// RecordsAt returns the records at offsets, in the order asked; every
// offset must lie in the topic.
func (t *topic) RecordsAt(offsets []int64) ([]Record, error) {
	recs := t.all()
	out := make([]Record, len(offsets))
	for i, off := range offsets {
		j := off - t.first
		if j < 0 || j >= int64(len(recs)) {
			return nil, fmt.Errorf("logstore: offset %d outside hot block [%d,%d)", off, t.first, t.first+int64(len(recs)))
		}
		out[i] = recs[j]
	}
	return out, nil
}

// rangeDisposition classifies a time range against the topic's
// watermarks: every record matches (index fast paths stay valid), none
// does, or a per-record filter is needed. Callers hold mu.
type rangeDisposition int

const (
	rangeAll rangeDisposition = iota
	rangeNone
	rangeFilter
)

func (t *topic) disposeLocked(tr TimeRange) rangeDisposition {
	if len(t.records) == 0 || tr.Empty() {
		return rangeNone
	}
	if tr.IsZero() || tr.Covers(time.Unix(0, t.minTime), time.Unix(0, t.maxTime)) {
		return rangeAll
	}
	if !tr.Overlaps(time.Unix(0, t.minTime), time.Unix(0, t.maxTime)) {
		return rangeNone
	}
	return rangeFilter
}

// scan calls fn for every record whose timestamp lies in tr. Only the
// record slice header and the range disposition are read under mu:
// records are append-only and never rewritten, so fn runs without the
// lock and a long scan (a token search over a whole block) never stalls
// appends.
func (t *topic) scan(tr TimeRange, fn func(Record)) {
	t.mu.RLock()
	recs, disp := t.records, t.disposeLocked(tr)
	t.mu.RUnlock()
	if disp == rangeNone {
		return
	}
	for _, r := range recs {
		if disp == rangeFilter && !tr.Contains(r.Time) {
			continue
		}
		fn(r)
	}
}

// SearchRangeInfo returns the offsets of records containing token (exact
// whitespace-delimited match) whose timestamp lies in [from, to],
// ascending. It is one linear pass over the records, testing each line
// with segment.HasToken — the predicate sealed blocks use, so a record's
// hits do not change when its block seals.
func (t *topic) SearchRangeInfo(token string, from, to time.Time) ([]int64, bool, error) {
	var out []int64
	var scratch []string
	t.scan(TimeRange{From: from, To: to}, func(r Record) {
		var hit bool
		if hit, scratch = segment.HasToken(scratch, r.Raw, token); hit {
			out = append(out, r.Offset)
		}
	})
	return out, false, nil
}

// ByTemplateRangeInfo returns the offsets of records matched to any of
// ids whose timestamp lies in [from, to], ascending and each once; a
// range covering the whole topic takes the index fast path.
func (t *topic) ByTemplateRangeInfo(from, to time.Time, ids ...uint64) ([]int64, bool, error) {
	tr := TimeRange{From: from, To: to}
	t.mu.RLock()
	defer t.mu.RUnlock()
	disp := t.disposeLocked(tr)
	if disp == rangeNone {
		return nil, false, nil
	}
	var out []int64
	for _, id := range ids {
		for _, off := range t.byTmpl[id] {
			if disp == rangeAll || tr.Contains(t.records[off-t.first].Time) {
				out = append(out, off)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out), false, nil
}

// blockSamples is how many example offsets per template a block reports
// to grouped queries: as many as sealed metadata keeps, so a record's
// samples do not change when its block seals.
const blockSamples = 5

// TemplateMetasRangeInfo returns every template's record count plus its
// first blockSamples offsets for records in [from, to] — straight from
// the template index when the range covers the whole topic, via a linear
// filter otherwise (the hot block is small; sealed history answers from
// segment metadata instead). Time bounds are left zero: the read path
// does not use them.
func (t *topic) TemplateMetasRangeInfo(from, to time.Time) ([]segment.TemplateMeta, bool, error) {
	tr := TimeRange{From: from, To: to}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []segment.TemplateMeta
	switch t.disposeLocked(tr) {
	case rangeNone:
		return nil, false, nil
	case rangeAll:
		out = make([]segment.TemplateMeta, 0, len(t.byTmpl))
		for id, offs := range t.byTmpl {
			out = append(out, segment.TemplateMeta{ID: id, Count: len(offs), Samples: offs[:min(len(offs), blockSamples)]})
		}
		return out, false, nil
	}
	at := make(map[uint64]int)
	for i := range t.records {
		r := &t.records[i]
		if !tr.Contains(r.Time) {
			continue
		}
		j, ok := at[r.TemplateID]
		if !ok {
			j = len(out)
			at[r.TemplateID] = j
			out = append(out, segment.TemplateMeta{ID: r.TemplateID})
		}
		out[j].Count++
		if len(out[j].Samples) < blockSamples {
			out[j].Samples = append(out[j].Samples, r.Offset)
		}
	}
	return out, false, nil
}

// TemplateGroup aggregates one template's records for grouped queries:
// the record count plus a few example offsets, everything the query layer
// needs to build a result row without scanning record payloads.
type TemplateGroup struct {
	// Count is the number of records carrying the template ID.
	Count int
	// Samples holds up to the requested number of example record
	// offsets, ascending.
	Samples []int64
}
