package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Reader gives query access to one sealed segment. The metadata section
// (template counts, time range, token bloom filter) is decoded once at
// Open; the compressed payload is only inflated when a query actually
// needs record contents, and BlockReads counts how often that happened —
// tests assert template pushdown by checking the counter stays at zero
// for non-matching segments. A query that inflates walks the record
// tuples (see walk.go): search, by-template and straddled grouped counts
// build no line, and Records and RecordsAt build only the lines they
// return.
//
// A Reader is immutable after Open and safe for concurrent use; payload
// decodes keep no inflated payload between queries, so memory stays
// bounded by the compressed size.
type Reader struct {
	data    []byte // full segment blob
	codec   Codec
	count   int
	first   int64
	base    int64 // unix-nano of record 0
	minTime int64
	maxTime int64
	raw     int64
	meta    metaIndex
	payload []byte // still compressed
	payLen  int    // uncompressed payload length

	blockReads atomic.Int64
}

type metaIndex struct {
	tmplIDs     []uint64 // sorted
	tmplCounts  []int
	tmplSamples [][]int64 // up to maxMetaSamples offsets each
	tmplMinT    []int64   // per-template time bounds
	tmplMaxT    []int64
	bloom       bloom
}

// Open parses a segment blob. It validates the checksum and metadata but
// does not decompress the payload.
func Open(data []byte) (*Reader, error) {
	if len(data) < headerSize+crcSize {
		return nil, corruptf("segment too short: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	if data[4] != formatVersion {
		return nil, corruptf("unsupported version %d", data[4])
	}
	body, crcBytes := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, corruptf("checksum mismatch: %08x != %08x", got, want)
	}
	r := &Reader{
		data:  data,
		codec: Codec(data[5]),
	}
	switch r.codec {
	case CodecNone, CodecFlate:
	default:
		return nil, corruptf("unknown codec %d", data[5])
	}
	r.count = int(binary.LittleEndian.Uint32(data[8:12]))
	r.first = int64(binary.LittleEndian.Uint64(data[12:20]))
	r.base = int64(binary.LittleEndian.Uint64(data[20:28]))
	r.minTime = int64(binary.LittleEndian.Uint64(data[28:36]))
	r.maxTime = int64(binary.LittleEndian.Uint64(data[36:44]))
	r.raw = int64(binary.LittleEndian.Uint64(data[44:52]))
	metaLen := int(binary.LittleEndian.Uint32(data[52:56]))
	r.payLen = int(binary.LittleEndian.Uint32(data[56:60]))
	payLen := int(binary.LittleEndian.Uint32(data[60:64]))
	if r.count <= 0 || r.count > maxRecords {
		return nil, corruptf("record count %d", r.count)
	}
	if metaLen < 0 || payLen < 0 || headerSize+metaLen+payLen+crcSize != len(data) {
		return nil, corruptf("section lengths %d+%d do not fit %d bytes", metaLen, payLen, len(data))
	}
	meta := data[headerSize : headerSize+metaLen]
	r.payload = data[headerSize+metaLen : headerSize+metaLen+payLen]
	if err := r.parseMeta(meta); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseMeta(meta []byte) error {
	c := &cursor{buf: meta}
	n, err := c.count(2) // template entries are ≥ 2 bytes each
	if err != nil {
		return err
	}
	r.meta.tmplIDs = make([]uint64, n)
	r.meta.tmplCounts = make([]int, n)
	r.meta.tmplSamples = make([][]int64, n)
	r.meta.tmplMinT = make([]int64, n)
	r.meta.tmplMaxT = make([]int64, n)
	total := 0
	for i := 0; i < n; i++ {
		if r.meta.tmplIDs[i], err = c.uvarint(); err != nil {
			return err
		}
		if i > 0 && r.meta.tmplIDs[i] <= r.meta.tmplIDs[i-1] {
			return corruptf("template IDs not strictly ascending")
		}
		cnt, err := c.uvarint()
		if err != nil {
			return err
		}
		if cnt == 0 || cnt > uint64(r.count) {
			return corruptf("template count %d of %d records", cnt, r.count)
		}
		r.meta.tmplCounts[i] = int(cnt)
		total += int(cnt)
		ns, err := c.uvarint()
		if err != nil {
			return err
		}
		if ns > maxMetaSamples || ns > cnt {
			return corruptf("template %d has %d samples of %d records", r.meta.tmplIDs[i], ns, cnt)
		}
		samples := make([]int64, ns)
		prevOff := r.first
		for j := range samples {
			d, err := c.uvarint()
			if err != nil {
				return err
			}
			if j > 0 && d == 0 {
				return corruptf("duplicate sample offset for template %d", r.meta.tmplIDs[i])
			}
			off := prevOff + int64(d)
			if off < r.first || off >= r.first+int64(r.count) {
				return corruptf("sample offset %d outside [%d,%d)", off, r.first, r.first+int64(r.count))
			}
			samples[j] = off
			prevOff = off
		}
		r.meta.tmplSamples[i] = samples
		dMin, err := c.uvarint()
		if err != nil {
			return err
		}
		dSpan, err := c.uvarint()
		if err != nil {
			return err
		}
		tMin := r.minTime + int64(dMin)
		tMax := tMin + int64(dSpan)
		if tMin < r.minTime || tMax > r.maxTime || tMax < tMin {
			return corruptf("template %d time bounds [%d,%d] outside block [%d,%d]",
				r.meta.tmplIDs[i], tMin, tMax, r.minTime, r.maxTime)
		}
		r.meta.tmplMinT[i] = tMin
		r.meta.tmplMaxT[i] = tMax
	}
	if total != r.count {
		return corruptf("template counts sum %d, want %d", total, r.count)
	}
	k, err := c.uvarint()
	if err != nil {
		return err
	}
	if k == 0 || k > 16 {
		return corruptf("bloom k %d", k)
	}
	blen, err := c.uvarint()
	if err != nil {
		return err
	}
	if blen > maxBloomBytes || blen > uint64(c.remaining()) {
		return corruptf("bloom length %d", blen)
	}
	bits, err := c.bytes(int(blen))
	if err != nil {
		return err
	}
	r.meta.bloom = bloom{bits: bits, k: int(k)}
	if c.remaining() != 0 {
		return corruptf("%d trailing metadata bytes", c.remaining())
	}
	return nil
}

// Count returns the number of records.
func (r *Reader) Count() int { return r.count }

// FirstOffset returns the topic offset of the first record.
func (r *Reader) FirstOffset() int64 { return r.first }

// RawBytes returns the total raw line bytes the segment represents.
func (r *Reader) RawBytes() int64 { return r.raw }

// EncodedBytes returns the full encoded segment size.
func (r *Reader) EncodedBytes() int64 { return int64(len(r.data)) }

// BlockReads returns how many times the payload has been decompressed.
// Pushdown-aware queries keep this at zero on segments whose metadata
// rules them out.
func (r *Reader) BlockReads() int64 { return r.blockReads.Load() }

// TemplateMeta is the metadata the segment stores for one template: its
// record count, the first few record offsets as grouped-query samples,
// and the time bounds of its records.
type TemplateMeta struct {
	ID      uint64
	Count   int
	Samples []int64 // ascending topic offsets, up to 5
	MinTime time.Time
	MaxTime time.Time
}

// templateMeta returns template i's sealed metadata entry. The sample
// slice aliases the reader's immutable state; callers must not modify it.
func (r *Reader) templateMeta(i int) TemplateMeta {
	return TemplateMeta{
		ID:      r.meta.tmplIDs[i],
		Count:   r.meta.tmplCounts[i],
		Samples: r.meta.tmplSamples[i],
		MinTime: time.Unix(0, r.meta.tmplMinT[i]),
		MaxTime: time.Unix(0, r.meta.tmplMaxT[i]),
	}
}

// minNanoTime/maxNanoTime bound the int64-nanosecond epoch (years
// 1678–2262); query bounds outside it saturate instead of letting
// UnixNano wrap around.
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// clampNanos converts t to UnixNano, saturating for times outside the
// representable range — a valid RFC 3339 query bound in year 1000 or
// 3000 must widen or empty the range, never flip it via int64 overflow.
func clampNanos(t time.Time) int64 {
	if t.Before(minNanoTime) {
		return math.MinInt64
	}
	if t.After(maxNanoTime) {
		return math.MaxInt64
	}
	return t.UnixNano()
}

// rangeNanos converts inclusive [from, to] query bounds to nanoseconds;
// a zero time is unbounded on that side.
func rangeNanos(from, to time.Time) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if !from.IsZero() {
		lo = clampNanos(from)
	}
	if !to.IsZero() {
		hi = clampNanos(to)
	}
	return lo, hi
}

// TemplateMetasRangeInfo returns per-template metadata restricted to
// records with timestamps in [from, to] (inclusive; zero times are
// unbounded), ID-ascending. It is the grouped-query pushdown surface:
//
//   - a block outside the range returns nothing, metadata-only;
//   - a block fully inside returns the sealed metadata as-is;
//   - in a straddling block, templates whose own time bounds fall fully
//     inside keep their metadata counts/samples, templates fully outside
//     prune away, and only templates straddling the boundary force one
//     payload decode.
//
// decoded false means metadata alone answered the query and the payload
// was never decompressed — the observable pushdown win.
func (r *Reader) TemplateMetasRangeInfo(from, to time.Time) ([]TemplateMeta, bool, error) {
	lo, hi := rangeNanos(from, to)
	if lo > hi || r.maxTime < lo || r.minTime > hi {
		return nil, false, nil
	}
	if r.minTime >= lo && r.maxTime <= hi {
		out := make([]TemplateMeta, len(r.meta.tmplIDs))
		for i := range out {
			out[i] = r.templateMeta(i)
		}
		return out, false, nil
	}
	// agg accumulates one straddling template's in-range records.
	type agg struct {
		n          int
		samples    []int64
		minT, maxT int64
	}
	out := make([]TemplateMeta, 0, len(r.meta.tmplIDs))
	straddling := make(map[uint64]*agg)
	for i, id := range r.meta.tmplIDs {
		tMin, tMax := r.meta.tmplMinT[i], r.meta.tmplMaxT[i]
		if tMax < lo || tMin > hi {
			continue
		}
		if tMin >= lo && tMax <= hi {
			out = append(out, r.templateMeta(i))
			continue
		}
		straddling[id] = &agg{}
	}
	if len(straddling) == 0 {
		return out, false, nil
	}
	// Straddling templates need exact in-range counts: one walk covers
	// them all.
	p, err := r.inflate()
	if err != nil {
		return nil, true, err
	}
	slot := make([]*agg, len(p.entries))
	for ei := range p.entries {
		slot[ei] = straddling[p.entries[ei].tmpl]
	}
	err = p.walk(func(i, ei int) {
		a := slot[ei]
		if a == nil || p.t < lo || p.t > hi {
			return
		}
		if a.n == 0 {
			a.minT, a.maxT = p.t, p.t
		}
		a.n++
		if len(a.samples) < maxMetaSamples {
			a.samples = append(a.samples, r.first+int64(i))
		}
		a.minT, a.maxT = min(a.minT, p.t), max(a.maxT, p.t)
	})
	if err != nil {
		return nil, true, err
	}
	for id, a := range straddling {
		if a.n > 0 {
			out = append(out, TemplateMeta{
				ID: id, Count: a.n, Samples: a.samples,
				MinTime: time.Unix(0, a.minT), MaxTime: time.Unix(0, a.maxT),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, true, nil
}

// Records decodes and returns every record. Each call inflates the
// payload (counted in BlockReads); callers that can push their predicate
// into metadata should do so first. The lines share one backing string,
// built in one pass over the record tuples.
func (r *Reader) Records() ([]Record, error) {
	p, err := r.inflate()
	if err != nil {
		return nil, err
	}
	out := make([]Record, r.count)
	ends := make([]int, r.count)
	var lines strings.Builder
	// RawBytes is the lines' total length; the cap keeps a corrupt header
	// from forcing a huge allocation before the walk can fail.
	lines.Grow(int(max(0, min(r.raw, int64(len(p.buf))*64))))
	err = p.walk(func(i, ei int) {
		e := &p.entries[ei]
		p.writeLine(&lines, e)
		ends[i] = lines.Len()
		out[i] = Record{Offset: r.first + int64(i), Time: time.Unix(0, p.t), TemplateID: e.tmpl}
	})
	if err != nil {
		return nil, err
	}
	all, lo := lines.String(), 0
	for i, hi := range ends {
		out[i].Raw, lo = all[lo:hi], hi
	}
	return out, nil
}

// RecordsAt returns the records at offsets, in the order asked; every
// offset must lie in the block. Like Records it inflates and walks the
// whole payload once, but it builds only the lines asked for.
func (r *Reader) RecordsAt(offsets []int64) ([]Record, error) {
	for _, off := range offsets {
		if off < r.first || off >= r.first+int64(r.count) {
			return nil, fmt.Errorf("segment: offset %d outside block [%d,%d)", off, r.first, r.first+int64(r.count))
		}
	}
	p, err := r.inflate()
	if err != nil {
		return nil, err
	}
	order := make([]int, len(offsets)) // positions in offsets, by offset
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(offsets[a], offsets[b]) })
	out := make([]Record, len(offsets))
	spans := make([][2]int, len(offsets)) // each line's bounds in lines
	var lines strings.Builder
	k := 0
	err = p.walk(func(i, ei int) {
		off := r.first + int64(i)
		if k == len(order) || offsets[order[k]] != off {
			return
		}
		e := &p.entries[ei]
		lo := lines.Len()
		p.writeLine(&lines, e)
		for ; k < len(order) && offsets[order[k]] == off; k++ {
			out[order[k]] = Record{Offset: off, Time: time.Unix(0, p.t), TemplateID: e.tmpl}
			spans[order[k]] = [2]int{lo, lines.Len()}
		}
	})
	if err != nil {
		return nil, err
	}
	all := lines.String()
	for pos, sp := range spans {
		out[pos].Raw = all[sp[0]:sp[1]]
	}
	return out, nil
}

// SearchRangeInfo returns the topic offsets of records containing the
// exact whitespace-delimited token with timestamps in [from, to]
// (inclusive; zero times are unbounded). decoded false means the block
// pruned away on metadata alone — its time bounds fall outside the
// range, or the bloom filter rules the token out — and the payload was
// never decompressed. A surviving block inflates once and builds no
// line: the token is resolved against the token table (see tokenHits),
// a dictionary entry with a hitting literal matches all of its records,
// and any other record matches on one of its variable token IDs.
func (r *Reader) SearchRangeInfo(token string, from, to time.Time) ([]int64, bool, error) {
	lo, hi := rangeNanos(from, to)
	if lo > hi || r.maxTime < lo || r.minTime > hi {
		return nil, false, nil
	}
	if !r.meta.bloom.mayContain(token) {
		// The bloom filter rules the token out of every record.
		return nil, false, nil
	}
	covered := r.minTime >= lo && r.maxTime <= hi
	p, err := r.inflate()
	if err != nil {
		return nil, true, err
	}
	hit := p.tokenHits(token)
	var entryHit []bool
	if hit != nil {
		entryHit = make([]bool, len(p.entries))
		for ei := range p.entries {
			for _, id := range p.entries[ei].lits {
				entryHit[ei] = entryHit[ei] || hit[id]
			}
		}
	}
	var out []int64
	err = p.walk(func(i, ei int) {
		if hit == nil || !covered && (p.t < lo || p.t > hi) {
			return
		}
		match := entryHit[ei]
		for _, id := range p.vars {
			match = match || hit[id]
		}
		if match {
			out = append(out, r.first+int64(i))
		}
	})
	if err != nil {
		return nil, true, err
	}
	return out, true, nil
}

// ByTemplateRangeInfo returns the topic offsets of records whose template
// is any of ids with timestamps in [from, to] (inclusive; zero times are
// unbounded). decoded false means metadata alone pruned the block — time
// bounds outside the range, no queried template present, or every
// queried template's own time bounds miss the range entirely. A
// surviving block inflates once and builds no line.
func (r *Reader) ByTemplateRangeInfo(from, to time.Time, ids ...uint64) ([]int64, bool, error) {
	lo, hi := rangeNanos(from, to)
	if lo > hi || r.maxTime < lo || r.minTime > hi {
		return nil, false, nil
	}
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	overlap, hits := false, 0
	for i, id := range r.meta.tmplIDs {
		if want[id] {
			hits += r.meta.tmplCounts[i]
			overlap = overlap || r.meta.tmplMaxT[i] >= lo && r.meta.tmplMinT[i] <= hi
		}
	}
	if !overlap {
		return nil, false, nil
	}
	covered := r.minTime >= lo && r.maxTime <= hi
	p, err := r.inflate()
	if err != nil {
		return nil, true, err
	}
	match := make([]bool, len(p.entries))
	for ei := range p.entries {
		match[ei] = want[p.entries[ei].tmpl]
	}
	out := make([]int64, 0, hits)
	err = p.walk(func(i, ei int) {
		if match[ei] && (covered || p.t >= lo && p.t <= hi) {
			out = append(out, r.first+int64(i))
		}
	})
	if err != nil {
		return nil, true, err
	}
	return out, true, nil
}
