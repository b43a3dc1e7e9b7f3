package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Encode seals records into one immutable segment blob.
//
// Records must be non-empty, offset-dense (records[i].Offset ==
// records[0].Offset+i — the append-only topic guarantees this) and in
// append order. The encoding is exact: Reader.Records returns every field
// bit-for-bit, including raw lines with repeated spaces or tabs.
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

	// Group records by (templateID, column count); one dictionary entry
	// per group. A column every group member agrees on is a literal
	// stored once in the entry; the rest are per-record variables.
	type groupKey struct {
		tmpl uint64
		cols int
	}
	cols := make([][]string, len(records))
	byGroup := make(map[groupKey][]int)
	var groupOrder []groupKey
	for i, r := range records {
		cols[i] = splitColumns(r.Raw)
		k := groupKey{r.TemplateID, len(cols[i])}
		if _, ok := byGroup[k]; !ok {
			groupOrder = append(groupOrder, k)
		}
		byGroup[k] = append(byGroup[k], i)
	}

	// Token table: intern every literal and variable token, first-use
	// order so hot tokens get small varint IDs.
	tokenID := make(map[string]uint64)
	var tokens []string
	intern := func(t string) uint64 {
		if id, ok := tokenID[t]; ok {
			return id
		}
		id := uint64(len(tokens))
		tokenID[t] = id
		tokens = append(tokens, t)
		return id
	}

	type entry struct {
		tmpl     uint64
		cols     int
		literal  []bool   // per column
		litIDs   []uint64 // token IDs of literal columns, in column order
		varCols  []int    // indices of variable columns
		entryIdx uint64
	}
	entries := make([]*entry, 0, len(groupOrder))
	recEntry := make([]*entry, len(records))
	for _, k := range groupOrder {
		idxs := byGroup[k]
		e := &entry{tmpl: k.tmpl, cols: k.cols, literal: make([]bool, k.cols), entryIdx: uint64(len(entries))}
		base := cols[idxs[0]]
		for c := 0; c < k.cols; c++ {
			lit := true
			for _, ri := range idxs[1:] {
				if cols[ri][c] != base[c] {
					lit = false
					break
				}
			}
			e.literal[c] = lit
			if lit {
				e.litIDs = append(e.litIDs, intern(base[c]))
			} else {
				e.varCols = append(e.varCols, c)
			}
		}
		entries = append(entries, e)
		for _, ri := range idxs {
			recEntry[ri] = e
		}
	}

	// Intern every variable token before the token table is serialized.
	varIDs := make([][]uint64, len(records))
	for i := range records {
		e := recEntry[i]
		if len(e.varCols) == 0 {
			continue
		}
		ids := make([]uint64, len(e.varCols))
		for vi, c := range e.varCols {
			ids[vi] = intern(cols[i][c])
		}
		varIDs[i] = ids
	}

	// Payload: token table, dictionary, record tuples.
	var payload []byte
	payload = appendUvarint(payload, uint64(len(tokens)))
	for _, t := range tokens {
		payload = appendUvarint(payload, uint64(len(t)))
		payload = append(payload, t...)
	}
	payload = appendUvarint(payload, uint64(len(entries)))
	var mask []byte // presence-mask scratch, reused across entries
	for _, e := range entries {
		payload = appendUvarint(payload, e.tmpl)
		payload = appendUvarint(payload, uint64(e.cols))
		need := (e.cols + 7) / 8
		if cap(mask) < need {
			mask = make([]byte, need)
		}
		mask = mask[:need]
		clear(mask)
		for c, lit := range e.literal {
			if lit {
				mask[c/8] |= 1 << (c % 8)
			}
		}
		payload = append(payload, mask...)
		for _, id := range e.litIDs {
			payload = appendUvarint(payload, id)
		}
	}
	payload = appendUvarint(payload, uint64(len(records)))
	baseTime := records[0].Time.UnixNano()
	prev := baseTime
	var rawBytes int64
	for i, r := range records {
		e := recEntry[i]
		payload = appendUvarint(payload, e.entryIdx)
		ns := r.Time.UnixNano()
		payload = appendVarint(payload, ns-prev)
		prev = ns
		for _, id := range varIDs[i] {
			payload = appendUvarint(payload, id)
		}
		rawBytes += int64(len(r.Raw))
	}
	payloadRawLen := len(payload)
	compressed, err := codec.compress(payload)
	if err != nil {
		return nil, Stats{}, err
	}

	// Metadata: per-template counts, sample offsets and time bounds,
	// min/max time, token bloom — the pushdown surface queries read
	// without decompressing the payload.
	tmplCounts := make(map[uint64]int)
	tmplSamples := make(map[uint64][]int64)
	tmplMinT := make(map[uint64]int64)
	tmplMaxT := make(map[uint64]int64)
	minT, maxT := records[0].Time.UnixNano(), records[0].Time.UnixNano()
	var fieldTokens int
	for _, r := range records {
		ns := r.Time.UnixNano()
		if tmplCounts[r.TemplateID] == 0 {
			tmplMinT[r.TemplateID] = ns
			tmplMaxT[r.TemplateID] = ns
		} else {
			if ns < tmplMinT[r.TemplateID] {
				tmplMinT[r.TemplateID] = ns
			}
			if ns > tmplMaxT[r.TemplateID] {
				tmplMaxT[r.TemplateID] = ns
			}
		}
		tmplCounts[r.TemplateID]++
		if s := tmplSamples[r.TemplateID]; len(s) < maxMetaSamples {
			tmplSamples[r.TemplateID] = append(s, r.Offset)
		}
		if ns < minT {
			minT = ns
		} else if ns > maxT {
			maxT = ns
		}
		fieldTokens += len(Tokenize(r.Raw))
	}
	bf := newBloom(fieldTokens)
	for _, r := range records {
		for _, tok := range Tokenize(r.Raw) {
			bf.add(tok)
		}
	}
	tmplIDs := make([]uint64, 0, len(tmplCounts))
	for id := range tmplCounts {
		tmplIDs = append(tmplIDs, id)
	}
	sort.Slice(tmplIDs, func(i, j int) bool { return tmplIDs[i] < tmplIDs[j] })
	var meta []byte
	meta = appendUvarint(meta, uint64(len(tmplIDs)))
	for _, id := range tmplIDs {
		meta = appendUvarint(meta, id)
		meta = appendUvarint(meta, uint64(tmplCounts[id]))
		// Sample offsets (v2): ascending, delta-encoded against the
		// segment's first offset so they stay small varints.
		samples := tmplSamples[id]
		meta = appendUvarint(meta, uint64(len(samples)))
		prevOff := first
		for _, off := range samples {
			meta = appendUvarint(meta, uint64(off-prevOff))
			prevOff = off
		}
		// Per-template time bounds (v3): deltas against the segment
		// minimum, both non-negative by construction.
		meta = appendUvarint(meta, uint64(tmplMinT[id]-minT))
		meta = appendUvarint(meta, uint64(tmplMaxT[id]-tmplMinT[id]))
	}
	meta = appendUvarint(meta, uint64(bf.k))
	meta = appendUvarint(meta, uint64(len(bf.bits)))
	meta = append(meta, bf.bits...)

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
	out = binary.LittleEndian.AppendUint32(out, uint32(payloadRawLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(compressed)))
	out = append(out, meta...)
	out = append(out, compressed...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))

	return out, Stats{
		Records:      len(records),
		RawBytes:     rawBytes,
		EncodedBytes: int64(len(out)),
		DictEntries:  len(entries),
		Tokens:       len(tokens),
	}, nil
}
