package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/datagen"
)

func ts(i int) time.Time { return time.Unix(1700000000, 0).Add(time.Duration(i) * time.Millisecond) }

func sampleRecords(n int, firstOffset int64) []Record {
	templates := []struct {
		id  uint64
		gen func(i int) string
	}{
		{101, func(i int) string { return fmt.Sprintf("Receiving block blk_%d src: /10.0.0.%d:50010", i, i%256) }},
		{102, func(i int) string { return fmt.Sprintf("PacketResponder %d for block blk_%d terminating", i%3, i) }},
		{103, func(i int) string { return "Verification succeeded for blk_-99" }},
	}
	recs := make([]Record, n)
	for i := range recs {
		t := templates[i%len(templates)]
		recs[i] = Record{
			Offset:     firstOffset + int64(i),
			Time:       ts(i),
			Raw:        t.gen(i),
			TemplateID: t.id,
		}
	}
	return recs
}

func roundTrip(t *testing.T, recs []Record, codec Codec) *Reader {
	t.Helper()
	blob, stats, err := Encode(recs, codec)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if stats.Records != len(recs) {
		t.Fatalf("stats.Records = %d, want %d", stats.Records, len(recs))
	}
	r, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := r.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Raw != recs[i].Raw {
			t.Fatalf("record %d raw %q, want %q", i, got[i].Raw, recs[i].Raw)
		}
		if got[i].TemplateID != recs[i].TemplateID {
			t.Fatalf("record %d template %d, want %d", i, got[i].TemplateID, recs[i].TemplateID)
		}
		if got[i].Offset != recs[i].Offset {
			t.Fatalf("record %d offset %d, want %d", i, got[i].Offset, recs[i].Offset)
		}
		if got[i].Time.UnixNano() != recs[i].Time.UnixNano() {
			t.Fatalf("record %d time %v, want %v", i, got[i].Time, recs[i].Time)
		}
	}
	return r
}

func TestRoundTripBasic(t *testing.T) {
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			roundTrip(t, sampleRecords(500, 1234), codec)
		})
	}
}

// TestRoundTripProperty is the acceptance property test: segments built
// from randomized records — adversarial whitespace, empty lines, unicode,
// out-of-order timestamps, arbitrary template IDs — decode every record
// bit-exact.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{
		"alpha", "beta", "", " ", "  double", "tab\there", "血", "x=1,y=2",
		"<*>", "blk_123", "/var/log/app.log", "9.9.9.9:80", "a b", "\t",
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		first := rng.Int63n(1 << 30)
		base := time.Unix(rng.Int63n(1e9), rng.Int63n(1e9))
		recs := make([]Record, n)
		for i := range recs {
			nTok := rng.Intn(12)
			parts := make([]string, nTok)
			for j := range parts {
				parts[j] = alphabet[rng.Intn(len(alphabet))]
			}
			recs[i] = Record{
				Offset: first + int64(i),
				// Deltas may be negative: timestamps need not be monotone.
				Time:       base.Add(time.Duration(rng.Int63n(2e9) - 1e9)),
				Raw:        strings.Join(parts, " "),
				TemplateID: rng.Uint64() >> uint(rng.Intn(64)),
			}
		}
		codec := CodecNone
		if trial%2 == 1 {
			codec = CodecFlate
		}
		roundTrip(t, recs, codec)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, _, err := Encode(nil, CodecFlate); err == nil {
		t.Fatal("Encode(nil) should fail")
	}
	recs := sampleRecords(3, 0)
	recs[2].Offset = 99 // not dense
	if _, _, err := Encode(recs, CodecFlate); err == nil {
		t.Fatal("Encode with non-dense offsets should fail")
	}
	if _, _, err := Encode(sampleRecords(3, 0), Codec(2)); err == nil {
		t.Fatal("Encode with an unknown codec should fail")
	}
}

func TestTemplatePushdown(t *testing.T) {
	r := roundTrip(t, sampleRecords(300, 0), CodecFlate)
	reads := r.BlockReads() // roundTrip decoded once

	// Absent template: metadata answers, payload untouched.
	offs, decoded, err := r.ByTemplateRangeInfo(time.Time{}, time.Time{}, 999)
	if err != nil {
		t.Fatal(err)
	}
	if offs != nil || decoded {
		t.Fatalf("ByTemplateRangeInfo(999) = %v, decoded=%v; want nil from metadata", offs, decoded)
	}
	if r.BlockReads() != reads {
		t.Fatalf("absent template decompressed the block (%d -> %d reads)", reads, r.BlockReads())
	}

	// Present template: decompresses once, returns exact offsets.
	offs, decoded, err = r.ByTemplateRangeInfo(time.Time{}, time.Time{}, 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 100 || !decoded {
		t.Fatalf("ByTemplateRangeInfo(101) returned %d offsets (decoded=%v), want 100", len(offs), decoded)
	}
	if r.BlockReads() != reads+1 {
		t.Fatalf("present template: %d reads, want %d", r.BlockReads(), reads+1)
	}
	// Per-template counts come from metadata alone.
	counts := map[uint64]int{}
	for _, tm := range allMetas(t, r) {
		counts[tm.ID] = tm.Count
	}
	if len(counts) != 3 || counts[101] != 100 || counts[102] != 100 || counts[103] != 100 {
		t.Fatalf("template counts = %v, want 100 each of 101..103", counts)
	}
}

func TestTokenSearchBloom(t *testing.T) {
	r := roundTrip(t, sampleRecords(300, 50), CodecFlate)
	offs, _, err := r.SearchRangeInfo("terminating", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 100 {
		t.Fatalf("Search(terminating) = %d offsets, want 100", len(offs))
	}
	// A token that cannot be present: bloom must usually skip the decode.
	// (Bloom filters allow false positives, so assert correctness of the
	// result, and only note the common fast path.)
	offs, _, err = r.SearchRangeInfo("definitely-not-a-token-xyzzy", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 0 {
		t.Fatalf("Search(absent) = %v, want none", offs)
	}
}

// countSince counts records with Time >= cut (inclusive) the way the
// store does: per-template counts over the open-ended range from cut.
func countSince(t *testing.T, r *Reader, cut time.Time) int {
	t.Helper()
	metas, _, err := r.TemplateMetasRangeInfo(cut, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tm := range metas {
		n += tm.Count
	}
	return n
}

func TestCountSincePushdown(t *testing.T) {
	r := roundTrip(t, sampleRecords(100, 0), CodecFlate)
	reads := r.BlockReads()
	if n := countSince(t, r, ts(0)); n != 100 {
		t.Fatalf("CountSince(min) = %d, want 100", n)
	}
	if n := countSince(t, r, ts(1000)); n != 0 {
		t.Fatalf("CountSince(beyond max) = %d, want 0", n)
	}
	if r.BlockReads() != reads {
		t.Fatal("all-or-nothing CountSince should not decompress")
	}
	if n := countSince(t, r, ts(60)); n != 40 {
		t.Fatalf("CountSince(mid) = %d, want 40", n)
	}
	if r.BlockReads() != reads+1 {
		t.Fatal("mid-range CountSince should decompress exactly once")
	}
	// Exact boundary timestamps: cut == MinTime takes the all-in fast
	// path (every record has Time >= MinTime), and cut == MaxTime must
	// NOT take the all-out fast path — the record at MaxTime itself
	// still counts. Both must agree with the linear scan.
	if n := countSince(t, r, time.Unix(0, r.minTime)); n != 100 {
		t.Fatalf("CountSince(MinTime) = %d, want 100", n)
	}
	if n := countSince(t, r, time.Unix(0, r.maxTime)); n != 1 {
		t.Fatalf("CountSince(MaxTime) = %d, want 1", n)
	}
	if n := countSince(t, r, time.Unix(0, r.maxTime).Add(time.Nanosecond)); n != 0 {
		t.Fatalf("CountSince(MaxTime+1ns) = %d, want 0", n)
	}
	if n := countSince(t, r, time.Unix(0, r.minTime).Add(-time.Nanosecond)); n != 100 {
		t.Fatalf("CountSince(MinTime-1ns) = %d, want 100", n)
	}
}

// TestOutOfOrderTimesWithinBlock: concurrent ingest queues hand the
// sealer records whose timestamps are not monotone. The time metadata
// (min/max bounds, delta-encoded payload times) and CountSince must stay
// exact regardless of intra-block time order.
func TestOutOfOrderTimesWithinBlock(t *testing.T) {
	recs := sampleRecords(100, 0)
	// Interleave two clocks: 50, 0, 51, 1, ... — max appears early, min
	// in the middle.
	for i := range recs {
		if i%2 == 0 {
			recs[i].Time = ts(50 + i/2)
		} else {
			recs[i].Time = ts(i / 2)
		}
	}
	r := roundTrip(t, recs, CodecFlate)
	if !time.Unix(0, r.minTime).Equal(ts(0)) || !time.Unix(0, r.maxTime).Equal(ts(99)) {
		t.Fatalf("time bounds = [%v, %v], want [ts(0), ts(99)]", time.Unix(0, r.minTime), time.Unix(0, r.maxTime))
	}
	got, err := r.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) {
			t.Fatalf("record %d time %v, want %v", i, got[i].Time, recs[i].Time)
		}
	}
	for _, cut := range []int{0, 25, 50, 75, 100} {
		want := 0
		for _, rec := range recs {
			if !rec.Time.Before(ts(cut)) {
				want++
			}
		}
		if n := countSince(t, r, ts(cut)); n != want {
			t.Fatalf("CountSince(ts(%d)) = %d, want %d", cut, n, want)
		}
	}
}

// TestCompressionRatioSyntheticDatasets is the acceptance bound: on the
// bundled synthetic LogHub datasets, a flate segment must encode to at
// most 25% of the raw bytes.
func TestCompressionRatioSyntheticDatasets(t *testing.T) {
	for _, name := range []string{"HDFS", "Apache", "Linux", "Zookeeper", "Spark"} {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]Record, len(ds.Lines))
		for i, line := range ds.Lines {
			recs[i] = Record{
				Offset:     int64(i),
				Time:       ts(i),
				Raw:        line,
				TemplateID: uint64(ds.Truth[i]) + 1,
			}
		}
		blob, stats, err := Encode(recs, CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(blob)) / float64(stats.RawBytes)
		t.Logf("%s: %d raw -> %d encoded (%.1f%%), %d dict entries, %d tokens",
			name, stats.RawBytes, len(blob), 100*ratio, stats.DictEntries, stats.Tokens)
		if ratio > 0.25 {
			t.Errorf("%s: compression ratio %.1f%% exceeds 25%% bound", name, 100*ratio)
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	blob, _, err := Encode(sampleRecords(50, 0), CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blob[:10]); err == nil {
		t.Fatal("Open(truncated) should fail")
	}
	for _, pos := range []int{0, 5, 9, 30, headerSize + 3, len(blob) - 2} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0xFF
		if _, err := Open(bad); err == nil {
			t.Fatalf("Open with byte %d flipped should fail (checksum)", pos)
		}
	}
}

func TestWriteOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000000.bbsg")
	recs := sampleRecords(120, 7)
	blob, _, err := Encode(recs, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind")
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 120 || r.FirstOffset() != 7 {
		t.Fatalf("reopened segment count=%d first=%d", r.Count(), r.FirstOffset())
	}
	got, err := r.Records()
	if err != nil || got[64].Offset != 7+64 || got[64].Raw != recs[64].Raw {
		t.Fatalf("Records()[64] = %+v, %v", got[64], err)
	}
}

func TestParseCodec(t *testing.T) {
	for s, want := range map[string]Codec{"": CodecFlate, "flate": CodecFlate, "none": CodecNone} {
		c, err := ParseCodec(s)
		if err != nil || c != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", s, c, err)
		}
	}
	for _, s := range []string{"zstd", "lz77"} {
		if _, err := ParseCodec(s); err == nil {
			t.Fatalf("unknown codec %q must error", s)
		}
	}
}

// allMetas returns every template's sealed metadata (the unbounded
// range), which must come from metadata alone.
func allMetas(t *testing.T, r *Reader) []TemplateMeta {
	t.Helper()
	metas, decoded, err := r.TemplateMetasRangeInfo(time.Time{}, time.Time{})
	if err != nil || decoded {
		t.Fatalf("unbounded TemplateMetasRangeInfo: decoded=%v, err=%v; want a metadata-only answer", decoded, err)
	}
	return metas
}

func TestTemplateMetaSamples(t *testing.T) {
	recs := sampleRecords(64, 1000)
	r := roundTrip(t, recs, CodecFlate)
	baseReads := r.BlockReads() // roundTrip decoded once to verify
	// Expected: first 5 offsets per template, computed independently.
	want := map[uint64][]int64{}
	for _, rec := range recs {
		if len(want[rec.TemplateID]) < 5 {
			want[rec.TemplateID] = append(want[rec.TemplateID], rec.Offset)
		}
	}
	metas := allMetas(t, r)
	if len(metas) != len(want) {
		t.Fatalf("TemplateMetasRangeInfo returned %d entries, want %d", len(metas), len(want))
	}
	counts := map[uint64]int{}
	for _, rec := range recs {
		counts[rec.TemplateID]++
	}
	for _, tm := range metas {
		if tm.Count != counts[tm.ID] {
			t.Errorf("template %d count %d, want %d", tm.ID, tm.Count, counts[tm.ID])
		}
		if fmt.Sprint(tm.Samples) != fmt.Sprint(want[tm.ID]) {
			t.Errorf("template %d samples %v, want %v", tm.ID, tm.Samples, want[tm.ID])
		}
	}
	// Reading metadata must not decompress the payload.
	if got := r.BlockReads() - baseReads; got != 0 {
		t.Errorf("unbounded metadata queries paid %d block reads", got)
	}
}

// TestTemplateTimeBounds: metadata carries exact per-template min/max
// timestamps.
func TestTemplateTimeBounds(t *testing.T) {
	recs := sampleRecords(90, 0)
	r := roundTrip(t, recs, CodecFlate)
	wantMin, wantMax := map[uint64]time.Time{}, map[uint64]time.Time{}
	for _, rec := range recs {
		if cur, ok := wantMin[rec.TemplateID]; !ok || rec.Time.Before(cur) {
			wantMin[rec.TemplateID] = rec.Time
		}
		if cur, ok := wantMax[rec.TemplateID]; !ok || rec.Time.After(cur) {
			wantMax[rec.TemplateID] = rec.Time
		}
	}
	for _, tm := range allMetas(t, r) {
		if !tm.MinTime.Equal(wantMin[tm.ID]) || !tm.MaxTime.Equal(wantMax[tm.ID]) {
			t.Errorf("template %d bounds [%v,%v], want [%v,%v]",
				tm.ID, tm.MinTime, tm.MaxTime, wantMin[tm.ID], wantMax[tm.ID])
		}
	}
}

// TestTemplateMetasRangePushdown exercises every pruning tier: whole-block
// prune, whole-block metadata answer, per-template prune inside a
// straddling block, and the payload decode only when a template itself
// straddles the boundary.
func TestTemplateMetasRangePushdown(t *testing.T) {
	// Two templates with disjoint time ranges inside one block:
	// template 1 at ts(0..49), template 2 at ts(50..99).
	recs := make([]Record, 100)
	for i := range recs {
		id := uint64(1)
		if i >= 50 {
			id = 2
		}
		recs[i] = Record{Offset: int64(i), Time: ts(i), Raw: fmt.Sprintf("event %d", i), TemplateID: id}
	}
	r := roundTrip(t, recs, CodecFlate)
	reads := r.BlockReads()
	// The decoded flag is asserted through BlockReads below.
	metasRange := func(from, to time.Time) ([]TemplateMeta, error) {
		metas, _, err := r.TemplateMetasRangeInfo(from, to)
		return metas, err
	}

	// Disjoint range: metadata-only, nothing returned.
	if metas, err := metasRange(ts(1000), ts(2000)); err != nil || metas != nil {
		t.Fatalf("disjoint range = %v, %v", metas, err)
	}
	if offs, decoded, err := r.ByTemplateRangeInfo(ts(100), ts(200), 1, 2); err != nil || decoded || offs != nil {
		t.Fatalf("disjoint ByTemplateRangeInfo = %v, decoded=%v, %v", offs, decoded, err)
	}
	// Covering range: metadata-only, full answer.
	metas, err := metasRange(ts(0), ts(99))
	if err != nil || len(metas) != 2 || metas[0].Count != 50 || metas[1].Count != 50 {
		t.Fatalf("covering range = %+v, %v", metas, err)
	}
	// Straddling block, but both templates decidable from their own
	// bounds: template 1 prunes away, template 2 is fully inside.
	metas, err = metasRange(ts(50), ts(200))
	if err != nil || len(metas) != 1 || metas[0].ID != 2 || metas[0].Count != 50 {
		t.Fatalf("per-template prune = %+v, %v", metas, err)
	}
	if r.BlockReads() != reads {
		t.Fatalf("metadata-decidable ranges decompressed the payload (%d -> %d reads)", reads, r.BlockReads())
	}
	// A range splitting template 2 itself: one decode, exact counts and
	// in-range samples.
	metas, err = metasRange(ts(60), ts(69))
	if err != nil || len(metas) != 1 || metas[0].ID != 2 || metas[0].Count != 10 {
		t.Fatalf("straddling template = %+v, %v", metas, err)
	}
	if want := []int64{60, 61, 62, 63, 64}; fmt.Sprint(metas[0].Samples) != fmt.Sprint(want) {
		t.Fatalf("straddling samples = %v, want %v", metas[0].Samples, want)
	}
	if !metas[0].MinTime.Equal(ts(60)) || !metas[0].MaxTime.Equal(ts(69)) {
		t.Fatalf("straddling bounds = [%v,%v]", metas[0].MinTime, metas[0].MaxTime)
	}
	if r.BlockReads() != reads+1 {
		t.Fatalf("straddling range paid %d reads, want 1", r.BlockReads()-reads)
	}
	// Unbounded sides.
	if metas, _ := metasRange(time.Time{}, time.Time{}); len(metas) != 2 {
		t.Fatalf("unbounded range = %+v", metas)
	}
	if metas, _ := metasRange(ts(50), time.Time{}); len(metas) != 1 || metas[0].ID != 2 {
		t.Fatalf("from-only range = %+v", metas)
	}
	// Inverted range is empty, not an error.
	if metas, err := metasRange(ts(80), ts(20)); err != nil || metas != nil {
		t.Fatalf("inverted range = %v, %v", metas, err)
	}
	// Bounds outside the int64-nanosecond epoch (years 1678–2262) must
	// saturate, not wrap: a from in year 3000 matches nothing, a from in
	// year 1000 matches everything, and a [1000, 3000] range covers all.
	y1000 := time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC)
	y3000 := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	if metas, err := metasRange(y3000, time.Time{}); err != nil || metas != nil {
		t.Fatalf("far-future from = %v, %v, want nothing", metas, err)
	}
	if offs, decoded, err := r.ByTemplateRangeInfo(y3000, time.Time{}, 1, 2); err != nil || decoded || offs != nil {
		t.Fatalf("far-future ByTemplateRangeInfo = %v, decoded=%v, %v", offs, decoded, err)
	}
	if metas, _ := metasRange(y1000, time.Time{}); len(metas) != 2 {
		t.Fatalf("far-past from = %+v, want both templates", metas)
	}
	if metas, _ := metasRange(y1000, y3000); len(metas) != 2 {
		t.Fatalf("epoch-spanning range = %+v, want both templates", metas)
	}
	if metas, err := metasRange(time.Time{}, y1000); err != nil || metas != nil {
		t.Fatalf("far-past to = %v, %v, want nothing", metas, err)
	}
}

// TestSearchTokenizationRoundTrip locks write-path (bloom) and read-path
// (SearchRangeInfo) tokenization together: every token the shared tokenizer
// produces from a stored line must be findable, including lines whose
// whitespace is not single spaces (tabs, runs of spaces) where a
// Fields/Split mismatch would silently drop results.
func TestSearchTokenizationRoundTrip(t *testing.T) {
	raws := []string{
		"plain space separated line",
		"tab\tseparated\ttokens here",
		"run   of    spaces",
		" leading and trailing ",
		"mixed \t whitespace\t kinds",
		"unicode 血 token",
	}
	recs := make([]Record, len(raws))
	for i, raw := range raws {
		recs[i] = Record{Offset: int64(i), Time: ts(i), Raw: raw, TemplateID: 7}
	}
	r := roundTrip(t, recs, CodecFlate)
	for i, raw := range raws {
		for _, tok := range Tokenize(raw) {
			if !r.meta.bloom.mayContain(tok) {
				t.Fatalf("bloom misses token %q of stored line %q", tok, raw)
			}
			offs, _, err := r.SearchRangeInfo(tok, time.Time{}, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, off := range offs {
				if off == int64(i) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Search(%q) = %v, missing offset %d (line %q)", tok, offs, i, raw)
			}
		}
	}
}

// TestOpenRejectsUnknownVersion: Open reads exactly formatVersion — the
// retired v1/v2 layouts and a future v4 are refused, as is a header
// naming a codec this build does not know (2 was once reserved for
// zstd). The CRC is recomputed so only the header check can fire.
func TestOpenRejectsUnknownVersion(t *testing.T) {
	good, _, err := Encode(sampleRecords(8, 0), CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		pos     int
		val     byte
		wantErr string
	}{
		{"v1", 4, 1, "unsupported version 1"},
		{"v2", 4, 2, "unsupported version 2"},
		{"v4", 4, formatVersion + 1, "unsupported version 4"},
		{"codec-2", 5, 2, "unknown codec 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := append([]byte(nil), good...)
			blob[tc.pos] = tc.val
			body := blob[:len(blob)-crcSize]
			binary.LittleEndian.PutUint32(blob[len(blob)-crcSize:], crc32.ChecksumIEEE(body))
			if _, err := Open(blob); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestTokenizeAppendMatchesFields: the append variant must agree with
// Tokenize (strings.Fields) byte-for-byte — a divergence would desync
// the hot token index from the sealed bloom filters.
func TestTokenizeAppendMatchesFields(t *testing.T) {
	lines := []string{
		"",
		"   \t \n ",
		"a",
		" leading and trailing  ",
		"many   internal \t tabs\tand  runs",
		"unicode héllo nbsp separated", // U+00A0 is Unicode space
		" em-space tokens",
		"plain ascii line with words",
	}
	for _, line := range lines {
		want := Tokenize(line)
		got := TokenizeAppend(nil, line)
		if len(got) != len(want) {
			t.Fatalf("TokenizeAppend(%q) = %v, want %v", line, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TokenizeAppend(%q)[%d] = %q, want %q", line, i, got[i], want[i])
			}
		}
		withPrefix := TokenizeAppend([]string{"p"}, line)
		if len(withPrefix) != len(want)+1 || withPrefix[0] != "p" {
			t.Fatalf("prefix handling broke for %q: %v", line, withPrefix)
		}
	}
}
