package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bytebrain/internal/datagen"
)

// This file keeps the segment encoder as it was before sealing became a
// single pass — each line split three times (once into columns, twice
// into search tokens), four per-template maps, a bloom sized by the
// total token count — as the oracle the single-pass
// Encode is checked against. Only the name changed, and compress now
// takes the buffer it appends to. Everything but the bloom section must
// come out byte-identical.

// splitColumns is the column split of encodeRef: the pieces of raw
// between single spaces.
func splitColumns(raw string) []string { return strings.Split(raw, " ") }

// encodeRef seals records into one immutable segment blob.
//
// Records must be non-empty, offset-dense (records[i].Offset ==
// records[0].Offset+i — the append-only topic guarantees this) and in
// append order. The encoding is exact: Reader.Records returns every field
// bit-for-bit, including raw lines with repeated spaces or tabs.
func encodeRef(records []Record, codec Codec) ([]byte, Stats, error) {
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
	compressed, err := codec.compress(nil, payload)
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

// assertEncodeParity encodes recs with Encode and with encodeRef and
// fails unless everything but the bloom section is identical: the
// header fields other than the metadata length, the compressed and the
// decompressed payload, the template metadata byte for byte, the bloom's
// hash count, the Stats other than the size, and what Records returns.
func assertEncodeParity(t testing.TB, recs []Record, codec Codec) {
	t.Helper()
	got, gotStats, err := Encode(recs, codec)
	want, wantStats, refErr := encodeRef(recs, codec)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Encode error %v, encodeRef error %v", err, refErr)
	}
	if err != nil {
		return
	}
	gotStats.EncodedBytes, wantStats.EncodedBytes = 0, 0
	if gotStats != wantStats {
		t.Fatalf("stats %+v, reference %+v", gotStats, wantStats)
	}
	const metaLenAt = 52 // the header's metadata-length field
	if !bytes.Equal(got[:metaLenAt], want[:metaLenAt]) || !bytes.Equal(got[metaLenAt+4:headerSize], want[metaLenAt+4:headerSize]) {
		t.Fatalf("header %x, reference %x", got[:headerSize], want[:headerSize])
	}
	gr, err := Open(got)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wr, err := Open(want)
	if err != nil {
		t.Fatalf("Open reference: %v", err)
	}
	if !bytes.Equal(gr.payload, wr.payload) {
		t.Fatalf("compressed payload differs: %d bytes, reference %d", len(gr.payload), len(wr.payload))
	}
	gp, err := gr.codec.decompress(gr.payload, gr.payLen)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wr.codec.decompress(wr.payload, wr.payLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gp, wp) {
		t.Fatalf("payload differs: %d bytes, reference %d", len(gp), len(wp))
	}
	if gm, wm := tmplMeta(got, gr), tmplMeta(want, wr); !bytes.Equal(gm, wm) {
		t.Fatalf("template metadata differs:\n got %x\nwant %x", gm, wm)
	}
	if !reflect.DeepEqual(gr.meta.tmplIDs, wr.meta.tmplIDs) ||
		!reflect.DeepEqual(gr.meta.tmplCounts, wr.meta.tmplCounts) ||
		!reflect.DeepEqual(gr.meta.tmplSamples, wr.meta.tmplSamples) ||
		!reflect.DeepEqual(gr.meta.tmplMinT, wr.meta.tmplMinT) ||
		!reflect.DeepEqual(gr.meta.tmplMaxT, wr.meta.tmplMaxT) {
		t.Fatalf("template metadata differs: %+v, reference %+v", gr.meta, wr.meta)
	}
	if gr.meta.bloom.k != wr.meta.bloom.k {
		t.Fatalf("bloom k %d, reference %d", gr.meta.bloom.k, wr.meta.bloom.k)
	}
	gotRecs, err := gr.Records()
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := wr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(recs) || len(wantRecs) != len(recs) {
		t.Fatalf("decoded %d records, reference %d, want %d", len(gotRecs), len(wantRecs), len(recs))
	}
	for i, r := range recs {
		g, w := gotRecs[i], wantRecs[i]
		if g.Offset != w.Offset || g.Raw != w.Raw || g.TemplateID != w.TemplateID || !g.Time.Equal(w.Time) ||
			g.Offset != r.Offset || g.Raw != r.Raw || g.TemplateID != r.TemplateID || g.Time.UnixNano() != r.Time.UnixNano() {
			t.Fatalf("record %d: got %+v, reference %+v, input %+v", i, g, w, r)
		}
	}
}

// tmplMeta returns the template part of a blob's metadata section: all
// of it but the trailing bloom (k, length, bits).
func tmplMeta(blob []byte, r *Reader) []byte {
	metaLen := int(binary.LittleEndian.Uint32(blob[52:56]))
	bits := len(r.meta.bloom.bits)
	tail := bits + len(binary.AppendUvarint(nil, uint64(bits))) + len(binary.AppendUvarint(nil, uint64(r.meta.bloom.k)))
	return blob[headerSize : headerSize+metaLen-tail]
}

// datasetRecords tags lines with their generator template (plus one, so
// no ID is zero) at millisecond-spaced times.
func datasetRecords(ds *datagen.Dataset) []Record {
	recs := make([]Record, len(ds.Lines))
	for i, line := range ds.Lines {
		recs[i] = Record{Offset: int64(i), Time: ts(i), Raw: line, TemplateID: uint64(ds.Truth[i]) + 1}
	}
	return recs
}

// randomRecords builds records that stress every branch of the encoder:
// tabs, runs of spaces, leading and trailing spaces, empty lines, U+00A0
// and other non-ASCII or invalid UTF-8, out-of-order times, templates
// whose lines split into several column counts, and more than five
// records per template spread across those groups.
func randomRecords(rng *rand.Rand, n int, first int64) []Record {
	words := []string{
		"alpha", "blk_-42", "10.0.0.7:50010", "", "", "a\tb", "\t", "tab\t",
		"x y", " ", "café", "日本", "　", "z z", "\x85", "\xff\xfe",
		"user=u1", "\r", "\v\f", "\n", "k=v", "42",
	}
	tmpls := []uint64{1, 2, 3, 1 << 40, math.MaxUint64}
	recs := make([]Record, n)
	now := time.Unix(1700000000, 0)
	for i := range recs {
		tmpl := rng.Intn(len(tmpls))
		var raw string
		switch rng.Intn(10) {
		case 0:
			raw = ""
		case 1:
			raw = " leading  and trailing "
		default:
			parts := make([]string, 1+tmpl+rng.Intn(3))
			for c := range parts {
				if c%2 == 0 && rng.Intn(5) != 0 {
					parts[c] = fmt.Sprintf("lit%d.%d", tmpl, c)
				} else if rng.Intn(2) == 0 {
					parts[c] = words[rng.Intn(len(words))]
				} else {
					parts[c] = fmt.Sprintf("v%d", rng.Intn(40))
				}
			}
			raw = strings.Join(parts, " ")
		}
		now = now.Add(time.Duration(rng.Intn(3000)-1000) * time.Microsecond)
		recs[i] = Record{Offset: first + int64(i), Time: now, Raw: raw, TemplateID: tmpls[tmpl]}
	}
	return recs
}

// TestEncodeMatchesReference checks the single-pass Encode against the
// encoder it replaced on every synthetic LogHub set, on LogHub-2.0 cuts,
// and on seeded random records.
func TestEncodeMatchesReference(t *testing.T) {
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("LogHub/"+name, func(t *testing.T) {
			for _, codec := range []Codec{CodecNone, CodecFlate} {
				assertEncodeParity(t, datasetRecords(ds), codec)
			}
		})
	}
	for _, name := range []string{"HDFS", "BGL", "Thunderbird"} {
		ds, err := datagen.LogHub2(name, 0.001, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("LogHub2/"+name, func(t *testing.T) {
			assertEncodeParity(t, datasetRecords(ds), CodecFlate)
		})
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 2, 7, 300} {
			recs := randomRecords(rng, n, seed*1000)
			for _, codec := range []Codec{CodecNone, CodecFlate} {
				assertEncodeParity(t, recs, codec)
			}
		}
	}
	for name, recs := range repeatedLineBlocks() {
		t.Run("repeats/"+name, func(t *testing.T) {
			for _, codec := range []Codec{CodecNone, CodecFlate} {
				assertEncodeParity(t, recs, codec)
			}
		})
	}
}

// repeatedLineBlocks are blocks whose records repeat earlier lines, the
// case Encode answers from its first record instead of splitting again.
func repeatedLineBlocks() map[string][]Record {
	type line struct {
		raw  string
		tmpl uint64
	}
	block := func(lines ...line) []Record {
		recs := make([]Record, len(lines))
		for i, l := range lines {
			recs[i] = Record{Offset: 500 + int64(i), Time: ts(i % 7), Raw: l.raw, TemplateID: l.tmpl}
		}
		return recs
	}
	var whole, twoIDs, rare []line
	for i := 0; i < 2000; i++ {
		whole = append(whole, line{"session 42 opened for user u7", 3})
	}
	for i := 0; i < 50; i++ {
		// The same raw line under two template IDs, as after a model
		// swap: each ID has its own dictionary entry.
		twoIDs = append(twoIDs, line{"conn 9 closed by peer", uint64(1 + i%2)}, line{fmt.Sprintf("conn %d closed by peer", i), 1})
		// Lines whose Tokenize tokens are not their columns.
		rare = append(rare, line{"a\tb c  d", 4}, line{"日本　x y", 4}, line{fmt.Sprintf("a\tb c  %d", i%3), 4})
	}
	return map[string][]Record{
		"one line":         block(whole...),
		"two template IDs": block(twoIDs...),
		"rare lines":       block(rare...),
		// "req 1 ok" repeats while column 1 is still a literal of its
		// group; "req 2 ok" then turns it variable, so the repeats after
		// it and before it must all carry the variable.
		"literal turns variable": block(
			line{"req 1 ok", 5}, line{"req 1 ok", 5}, line{"other line", 6}, line{"req 1 ok", 5},
			line{"req 2 ok", 5}, line{"req 1 ok", 5}, line{"req 2 ok", 5}, line{"req 1 ok", 6},
		),
	}
}

// TestEncoderKeepsNoLine checks that the cached encoder holds no string
// of a block once Encode returns, so it never keeps sealed lines alive.
func TestEncoderKeepsNoLine(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(1)), 300, 0)
	recs = append(recs, recs...)
	for i := range recs {
		recs[i].Offset = int64(i)
	}
	if _, _, err := Encode(recs, CodecFlate); err != nil {
		t.Fatal(err)
	}
	e := spareEncoder.Load()
	if e == nil {
		t.Fatal("no cached encoder after Encode")
	}
	if len(e.firstOf) != 0 || len(e.tokenID) != 0 || len(e.groupOf) != 0 {
		t.Fatalf("cached encoder keeps %d lines, %d tokens and %d groups in its maps",
			len(e.firstOf), len(e.tokenID), len(e.groupOf))
	}
	for name, strs := range map[string][]string{"tokens": e.tokens, "fields": e.fields} {
		for i, s := range strs[:cap(strs)] {
			if s != "" {
				t.Fatalf("cached encoder keeps %s[%d] = %q", name, i, s)
			}
		}
	}
}

// FuzzEncodeParity holds Encode to encodeRef on arbitrary lines (one per
// newline-separated field), templates and times.
func FuzzEncodeParity(f *testing.F) {
	f.Add("a b c\nd  e\tf\n\n x y \na b d", int64(1))
	f.Add(" \n  \n\t\n　", int64(2))
	f.Add("PacketResponder 1 for block blk_7 terminating\nPacketResponder 2 for block blk_8 terminating", int64(3))
	// Repeated lines; the seed's templates put some repeats under a
	// second template ID.
	f.Add(strings.Repeat("one line all block\n", 200)+"one line all block", int64(4))
	f.Add("x y z\nx y z\nx y z\nx y z\nx y z\nx y z", int64(5))
	f.Add("a\tb c\nu　v w\na\tb c\nu　v w\na\tb c", int64(6))
	f.Add("req 1 ok\nreq 1 ok\nreq 2 ok\nreq 1 ok\nreq 3 ok\nreq 1 ok", int64(7))
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		lines := strings.Split(text, "\n")
		if len(lines) > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1700000000, 0)
		recs := make([]Record, len(lines))
		for i, line := range lines {
			now = now.Add(time.Duration(rng.Intn(2000)-500) * time.Microsecond)
			recs[i] = Record{Offset: 100 + int64(i), Time: now, Raw: line, TemplateID: uint64(rng.Intn(3))}
		}
		for _, codec := range []Codec{CodecNone, CodecFlate} {
			assertEncodeParity(t, recs, codec)
		}
		assertNoFalseNegatives(t, recs)
	})
}

// TestEncodeConcurrent runs Encode and a sealed read from several
// goroutines at once: the cached encoder scratch, flate writers and flate
// readers must never be shared between two calls, so every blob equals
// the one a lone call produced and reads back to its records.
func TestEncodeConcurrent(t *testing.T) {
	sets := make([][]Record, 4)
	want := make([][]byte, len(sets))
	for i := range sets {
		sets[i] = randomRecords(rand.New(rand.NewSource(int64(i))), 200+100*i, int64(i)*1000)
		blob, _, err := Encode(sets[i], CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = blob
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(sets)
				blob, _, err := Encode(sets[i], CodecFlate)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(blob, want[i]) {
					t.Errorf("goroutine %d: set %d encoded differently under concurrency", g, i)
					return
				}
				r, err := Open(blob)
				if err != nil {
					t.Error(err)
					return
				}
				recs, err := r.Records()
				if err != nil || len(recs) != len(sets[i]) || recs[len(recs)-1].Raw != sets[i][len(recs)-1].Raw {
					t.Errorf("goroutine %d: set %d read back %d records (%v) under concurrency", g, i, len(recs), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
