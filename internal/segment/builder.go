package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sync/atomic"
)

// groupKey identifies one dictionary entry: the records of a template
// that split into the same number of columns.
type groupKey struct {
	tmpl uint64
	cols int
}

// group is one dictionary entry together with the statistics of its
// members that Encode merges into the per-template metadata.
type group struct {
	groupKey
	base       int // index of the first member, whose columns literals are checked against
	colOff     int // the group's columns start at encoder.colIDs[colOff]
	vars       int // variable column count
	n          int
	minT, maxT int64
	nSamples   int
	samples    [maxMetaSamples]int64 // offsets of the first members
}

// variableCol marks a column of encoder.colIDs that group members
// disagree on.
const variableCol = -1

// encoder is the scratch state of one Encode call. One encoder is cached
// between calls, so a stream of seals reuses the same slices and maps
// instead of allocating per record.
type encoder struct {
	ends     []int // every record's column end offsets, back to back
	start    []int // record i's column ends are ends[start[i]:start[i+1]]
	recGroup []int // group index of each record
	// firstOf maps a raw line to the index of its first record in the
	// block, and src[i] is the record whose columns record i shares:
	// that first record when i repeats its line and template, else i.
	// A repeat stores no column ends of its own.
	firstOf map[string]int
	src     []int
	varSpan []span // where each record's variable token IDs sit in the tuples
	groupOf map[groupKey]int
	groups  []group
	colIDs  []int // per group column: literal token ID, or variableCol
	rare    []int // records whose Tokenize tokens are not their non-empty columns
	tokenID map[string]int
	tokens  []string
	order   []int    // group indices sorted by template
	samples []int64  // one template's sample offsets, merged across groups
	fields  []string // Tokenize scratch for the rare lines
	payload []byte
	packed  []byte // the record tuples, then the compressed payload
	meta    []byte
}

// spareEncoder is the encoder cache: a single slot, not a sync.Pool,
// because the garbage collector empties pools and a service seals at
// most once per block, with collections in between — a pooled encoder
// would rarely survive from one seal to the next. An Encode that finds
// the slot empty (a concurrent seal holds it) builds its own.
var spareEncoder atomic.Pointer[encoder]

// getEncoder takes the cached encoder, or builds one.
func getEncoder() *encoder {
	if e := spareEncoder.Swap(nil); e != nil {
		return e
	}
	return &encoder{firstOf: make(map[string]int), groupOf: make(map[groupKey]int), tokenID: make(map[string]int)}
}

// release drops every reference into the caller's records, so the cached
// encoder does not keep sealed lines alive, and puts e back in the slot.
func (e *encoder) release() {
	clear(e.tokens)
	// Each rare line reslices fields to zero, so tokens of a longer
	// earlier line sit past its length.
	clear(e.fields[:cap(e.fields)])
	clear(e.firstOf)
	clear(e.groupOf)
	clear(e.tokenID)
	spareEncoder.Store(e)
}

// Encode seals records into one immutable segment blob.
//
// Records must be non-empty, offset-dense (records[i].Offset ==
// records[0].Offset+i — the append-only topic guarantees this) and in
// append order. The encoding is exact: Reader.Records returns every field
// bit-for-bit, including raw lines with repeated spaces or tabs.
//
// Each distinct line is split into columns once, into one flat slice of
// column end offsets, and each record does at most one group lookup
// (none when it repeats the previous record's group). A record that
// repeats an earlier line of the block under the same template reuses
// that record's columns, group and variable token IDs: it is not split,
// compared or interned again. Per-group statistics are merged into the
// per-template metadata at the end. The token bloom is sized by distinct
// tokens: every non-empty column value, plus the Tokenize tokens of the
// few lines whose whitespace is not just ASCII spaces.
func Encode(records []Record, codec Codec) ([]byte, Stats, error) {
	if len(records) == 0 {
		return nil, Stats{}, fmt.Errorf("segment: encode: no records")
	}
	if len(records) > maxRecords {
		return nil, Stats{}, fmt.Errorf("segment: encode: %d records exceeds max %d", len(records), maxRecords)
	}
	first := records[0].Offset
	for i := range records {
		if records[i].Offset != first+int64(i) {
			return nil, Stats{}, fmt.Errorf("segment: encode: offset %d at index %d, want dense %d",
				records[i].Offset, i, first+int64(i))
		}
	}
	e := getEncoder()
	defer e.release()

	// Split each distinct line once, group the records by (template,
	// column count) — one dictionary entry per group — and find each
	// group's literal columns: the ones every member agrees on, stored
	// once in the entry. The rest are per-record variables. A repeated
	// line falls in its first record's group and agrees with the group
	// exactly where that record did, so it skips all of this.
	e.ends, e.start, e.recGroup, e.src = e.ends[:0], e.start[:0], e.recGroup[:0], e.src[:0]
	e.groups, e.colIDs, e.rare = e.groups[:0], e.colIDs[:0], e.rare[:0]
	minT, maxT := records[0].Time.UnixNano(), records[0].Time.UnixNano()
	var rawBytes int64
	prevKey, g := groupKey{}, -1
	for i, r := range records {
		rawBytes += int64(len(r.Raw))
		e.start = append(e.start, len(e.ends))
		j, seen := e.firstOf[r.Raw]
		if seen && records[j].TemplateID == r.TemplateID {
			g = e.recGroup[j]
			prevKey = e.groups[g].groupKey
		} else {
			if !seen {
				e.firstOf[r.Raw] = i
			}
			j = i
			g, prevKey = e.group(records, i, prevKey, g)
		}
		e.src = append(e.src, j)
		e.recGroup = append(e.recGroup, g)
		gr := &e.groups[g]
		ns := r.Time.UnixNano()
		if gr.n == 0 {
			gr.minT, gr.maxT = ns, ns
		} else {
			gr.minT, gr.maxT = min(gr.minT, ns), max(gr.maxT, ns)
		}
		minT, maxT = min(minT, ns), max(maxT, ns)
		gr.n++
		if gr.nSamples < maxMetaSamples {
			gr.samples[gr.nSamples] = r.Offset
			gr.nSamples++
		}
	}
	e.start = append(e.start, len(e.ends))

	// Token table: intern every literal, then every variable token in
	// record order, first use first so hot tokens get small varint IDs.
	e.tokens = e.tokens[:0]
	for gi := range e.groups {
		gr := &e.groups[gi]
		base, lo := records[gr.base].Raw, 0
		ids := e.colIDs[gr.colOff : gr.colOff+gr.cols]
		for c, hi := range e.ends[e.start[gr.base] : e.start[gr.base]+gr.cols] {
			if ids[c] == variableCol {
				gr.vars++
			} else {
				ids[c] = e.intern(base[lo:hi])
			}
			lo = hi + 1
		}
	}
	// The record tuples follow the token table in the payload, but
	// writing them is what interns the variables, so they are buffered
	// in e.packed first. A repeated line copies its first record's
	// variable IDs: interning them again would return the same IDs and
	// add no token.
	tuples := e.packed[:0]
	e.varSpan = e.varSpan[:0]
	baseTime := records[0].Time.UnixNano()
	prev := baseTime
	for i, r := range records {
		gr := &e.groups[e.recGroup[i]]
		tuples = appendUvarint(tuples, uint64(e.recGroup[i]))
		ns := r.Time.UnixNano()
		tuples = appendVarint(tuples, ns-prev)
		prev = ns
		lo := len(tuples)
		if j := e.src[i]; j != i {
			tuples = append(tuples, tuples[e.varSpan[j].lo:e.varSpan[j].hi]...)
		} else if gr.vars > 0 {
			ids, col := e.colIDs[gr.colOff:gr.colOff+gr.cols], 0
			for c, hi := range e.ends[e.start[i]:e.start[i+1]] {
				if ids[c] == variableCol {
					tuples = appendUvarint(tuples, uint64(e.intern(r.Raw[col:hi])))
				}
				col = hi + 1
			}
		}
		e.varSpan = append(e.varSpan, span{uint32(lo), uint32(len(tuples))})
	}
	tableSize := len(e.tokens)

	// Payload: token table, dictionary, record tuples.
	payload := appendUvarint(e.payload[:0], uint64(len(e.tokens)))
	for _, t := range e.tokens {
		payload = appendUvarint(payload, uint64(len(t)))
		payload = append(payload, t...)
	}
	payload = appendUvarint(payload, uint64(len(e.groups)))
	for gi := range e.groups {
		gr := &e.groups[gi]
		payload = appendUvarint(payload, gr.tmpl)
		payload = appendUvarint(payload, uint64(gr.cols))
		ids := e.colIDs[gr.colOff : gr.colOff+gr.cols]
		mask := len(payload)
		for range (gr.cols + 7) / 8 {
			payload = append(payload, 0)
		}
		for c, id := range ids {
			if id != variableCol {
				payload[mask+c/8] |= 1 << (c % 8)
			}
		}
		for _, id := range ids {
			if id != variableCol {
				payload = appendUvarint(payload, uint64(id))
			}
		}
	}
	payload = appendUvarint(payload, uint64(len(records)))
	payload = append(payload, tuples...)
	compressed, err := codec.compress(tuples[:0], payload)
	if err != nil {
		return nil, Stats{}, err
	}
	e.payload, e.packed = payload, compressed

	// Token bloom over distinct tokens. A plain line's Tokenize tokens
	// are exactly its non-empty columns, all interned above; only the
	// rare lines need tokenizing, and their tokens join the set here
	// (after the table is serialized, so they stay out of the payload).
	for _, i := range e.rare {
		e.fields = TokenizeAppend(e.fields[:0], records[i].Raw)
		for _, t := range e.fields {
			e.intern(t)
		}
	}
	distinct := len(e.tokens)
	if _, ok := e.tokenID[""]; ok {
		distinct--
	}
	bf := newBloom(distinct)
	for _, t := range e.tokens {
		if t != "" {
			bf.add(t)
		}
	}

	// Metadata: per-template counts, sample offsets and time bounds,
	// then the bloom — the pushdown surface queries read without
	// decompressing the payload. A template that split into groups of
	// several column counts merges them here.
	e.order = e.order[:0]
	for gi := range e.groups {
		e.order = append(e.order, gi)
	}
	slices.SortFunc(e.order, func(a, b int) int { return cmp.Compare(e.groups[a].tmpl, e.groups[b].tmpl) })
	nTmpl := 0
	for j, gi := range e.order {
		if j == 0 || e.groups[gi].tmpl != e.groups[e.order[j-1]].tmpl {
			nTmpl++
		}
	}
	meta := appendUvarint(e.meta[:0], uint64(nTmpl))
	for j := 0; j < len(e.order); {
		head := &e.groups[e.order[j]]
		count, tMin, tMax := 0, head.minT, head.maxT
		e.samples = e.samples[:0]
		for ; j < len(e.order) && e.groups[e.order[j]].tmpl == head.tmpl; j++ {
			gr := &e.groups[e.order[j]]
			count += gr.n
			tMin, tMax = min(tMin, gr.minT), max(tMax, gr.maxT)
			e.samples = append(e.samples, gr.samples[:gr.nSamples]...)
		}
		slices.Sort(e.samples)
		samples := e.samples[:min(len(e.samples), maxMetaSamples)]
		meta = appendUvarint(meta, head.tmpl)
		meta = appendUvarint(meta, uint64(count))
		// Sample offsets (v2): ascending, delta-encoded against the
		// segment's first offset so they stay small varints.
		meta = appendUvarint(meta, uint64(len(samples)))
		prevOff := first
		for _, off := range samples {
			meta = appendUvarint(meta, uint64(off-prevOff))
			prevOff = off
		}
		// Per-template time bounds (v3): deltas against the segment
		// minimum, both non-negative by construction.
		meta = appendUvarint(meta, uint64(tMin-minT))
		meta = appendUvarint(meta, uint64(tMax-tMin))
	}
	meta = appendUvarint(meta, uint64(bf.k))
	meta = appendUvarint(meta, uint64(len(bf.bits)))
	meta = append(meta, bf.bits...)
	e.meta = meta

	// Assemble: fixed header, meta, payload, CRC.
	out := make([]byte, 0, headerSize+len(meta)+len(compressed)+crcSize)
	out = append(out, magic...)
	out = append(out, formatVersion, byte(codec), 0, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(records)))
	out = binary.LittleEndian.AppendUint64(out, uint64(first))
	out = binary.LittleEndian.AppendUint64(out, uint64(baseTime))
	out = binary.LittleEndian.AppendUint64(out, uint64(minT))
	out = binary.LittleEndian.AppendUint64(out, uint64(maxT))
	out = binary.LittleEndian.AppendUint64(out, uint64(rawBytes))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(meta)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(compressed)))
	out = append(out, meta...)
	out = append(out, compressed...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))

	return out, Stats{
		Records:      len(records),
		RawBytes:     rawBytes,
		EncodedBytes: int64(len(out)),
		DictEntries:  len(e.groups),
		Tokens:       tableSize,
	}, nil
}

// group splits record i, finds or creates its group — skipping the
// lookup when the key repeats prevKey, whose group is g — and turns
// variable every literal column of the group that i disagrees on. It
// returns i's group index and key.
func (e *encoder) group(records []Record, i int, prevKey groupKey, g int) (int, groupKey) {
	r := records[i]
	s := len(e.ends)
	if !e.split(r.Raw) {
		e.rare = append(e.rare, i)
	}
	ends := e.ends[s:]
	k := groupKey{r.TemplateID, len(ends)}
	if g < 0 || k != prevKey {
		var ok bool
		if g, ok = e.groupOf[k]; !ok {
			g = len(e.groups)
			e.groupOf[k] = g
			e.groups = append(e.groups, group{groupKey: k, base: i, colOff: len(e.colIDs)})
			e.colIDs = append(e.colIDs, make([]int, len(ends))...)
		}
	}
	gr := &e.groups[g]
	if gr.base == i {
		return g, k
	}
	base, baseEnds := records[gr.base].Raw, e.ends[e.start[gr.base]:]
	ids := e.colIDs[gr.colOff : gr.colOff+len(ends)]
	lo, baseLo := 0, 0
	for c, hi := range ends {
		if ids[c] != variableCol && r.Raw[lo:hi] != base[baseLo:baseEnds[c]] {
			ids[c] = variableCol
		}
		lo, baseLo = hi+1, baseEnds[c]+1
	}
	return g, k
}

// split appends the end offsets of raw's columns — the pieces between
// single spaces — to e.ends. Column c spans raw[lo:hi], where hi is its
// end and lo is one past the previous column's end (0 for the first).
// The split is lossless for every string: joining the columns with
// single spaces reproduces raw byte-for-byte (empty columns preserve
// runs of spaces). Offsets rather than strings keep the pooled scratch
// free of pointers, so it costs the garbage collector nothing to keep.
// split reports whether raw is plain — ASCII with no whitespace but the
// space — so that its Tokenize tokens are exactly its non-empty columns.
//
// Both jobs share one scan, eight bytes at a time: the spaces of a word
// are found exactly, and a word holding any byte ≥ 0x80 or < 0x20 is
// checked byte by byte for plainness.
func (e *encoder) split(raw string) (plain bool) {
	const lows, highs, spaces = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080, 0x2020202020202020
	plain = true
	i := 0
	for ; i+8 <= len(raw); i += 8 {
		w := uint64(raw[i]) | uint64(raw[i+1])<<8 | uint64(raw[i+2])<<16 | uint64(raw[i+3])<<24 |
			uint64(raw[i+4])<<32 | uint64(raw[i+5])<<40 | uint64(raw[i+6])<<48 | uint64(raw[i+7])<<56
		x := w ^ spaces // zero bytes where raw has a space
		for sp := ^((x&lows + lows) | x | lows); sp != 0; sp &= sp - 1 {
			e.ends = append(e.ends, i+bits.TrailingZeros64(sp)/8)
		}
		if plain && (w|(w-spaces))&highs != 0 {
			plain = plainBytes(raw[i : i+8])
		}
	}
	tail := i
	for ; i < len(raw); i++ {
		if raw[i] == ' ' {
			e.ends = append(e.ends, i)
		}
	}
	e.ends = append(e.ends, len(raw))
	return plain && plainBytes(raw[tail:])
}

// plainBytes reports whether s holds no byte ≥ 0x80 and no ASCII
// whitespace but the space.
func plainBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x80 || c != ' ' && asciiSpace(c) {
			return false
		}
	}
	return true
}

// intern returns t's token-table ID, adding t on first use.
func (e *encoder) intern(t string) int {
	if id, ok := e.tokenID[t]; ok {
		return id
	}
	id := len(e.tokens)
	e.tokenID[t] = id
	e.tokens = append(e.tokens, t)
	return id
}
