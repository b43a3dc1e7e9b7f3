package segment

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzOpen throws arbitrary bytes at the segment decoder. The invariant:
// Open, a full Records decode and every other walk of the payload either
// succeed or return an error —
// never panic, never over-allocate past the input-proportional bounds the
// cursor enforces.
func FuzzOpen(f *testing.F) {
	for _, n := range []int{1, 10, 300} {
		for _, codec := range []Codec{CodecNone, CodecFlate} {
			if blob, _, err := Encode(sampleRecords(n, int64(n)), codec); err == nil {
				f.Add(blob)
			}
		}
	}
	f.Add([]byte(magic))
	f.Add([]byte("BBSG\x03\x01\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			return
		}
		// The walks that build no line decode the same payload: on a
		// corrupt one they fail too, and never panic.
		mid := time.Unix(0, (r.minTime+r.maxTime)/2)
		r.SearchRangeInfo("a", time.Time{}, time.Time{})
		r.ByTemplateRangeInfo(time.Time{}, mid, r.meta.tmplIDs...)
		r.TemplateMetasRangeInfo(time.Time{}, mid)
		r.RecordsAt([]int64{r.FirstOffset() + int64(r.Count()) - 1, r.FirstOffset()})
		recs, err := r.Records()
		if err != nil {
			return
		}
		if len(recs) != r.Count() {
			t.Fatalf("decoded %d records, header says %d", len(recs), r.Count())
		}
	})
}

// FuzzHasToken pins the one definition of a search hit: HasToken(raw,
// tok) and the sealed walk's hasField([]byte(raw), tok) are true exactly
// when tok is one of Tokenize(raw). The seeds aim at
// the places a substring prefilter and a tokenizer can disagree —
// Unicode whitespace the ASCII fast path does not scan, invalid UTF-8,
// tokens that are substrings of a longer token, empty tokens and tokens
// that themselves contain whitespace.
func FuzzHasToken(f *testing.F) {
	seeds := [][2]string{
		{"error on disk sda", "error"},
		{"error on disk sda", "err"},
		{"a\tb\t\tc", "b"},
		{"  lead   and trail  ", "and"},
		{"x y z", "x"},
		{"x y z", "x y"},
		{"p　q", "q"},
		{"m\u0085n", "m"},
		{"bad \xff\xfe utf8 \xff", "\xff"},
		{"bad \xff\xfe utf8", "\xff\xfe"},
		{"anything", ""},
		{"two words here", "two words"},
		{"", "x"},
		{"blk_1 blk_12 blk_123", "blk_12"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, raw, tok string) {
		want := false
		for _, w := range Tokenize(raw) {
			if w == tok {
				want = true
				break
			}
		}
		scratch := []string{"stale", "entries"}
		got, scratch := HasToken(scratch, raw, tok)
		if got != want {
			t.Fatalf("HasToken(%q, %q) = %v, Tokenize says %v", raw, tok, got, want)
		}
		if col := []byte(raw); hasField(col, tok) != want {
			t.Fatalf("hasField(%q, %q) = %v, Tokenize says %v", raw, tok, !want, want)
		}
		// The returned scratch is reusable: a second call agrees.
		if again, _ := HasToken(scratch, raw, tok); again != got {
			t.Fatalf("HasToken(%q, %q) with reused scratch = %v, first call %v", raw, tok, again, got)
		}
	})
}

// FuzzSealedQueries pins the sealed query paths, which answer from the
// record tuples without building lines, to a reference built from the
// decoded lines: SearchRangeInfo to HasToken over Records, and
// ByTemplateRangeInfo, TemplateMetasRangeInfo (zero, covering and
// straddling ranges) and RecordsAt to the same records filtered and
// picked directly. Each line of text becomes one record; the seeds hold
// tabs, U+3000, U+0085, invalid UTF-8, runs of spaces, the empty token
// and a token holding a tab — a column "a\tb" holds the tokens "a" and
// "b", never "a\tb".
func FuzzSealedQueries(f *testing.F) {
	seeds := []struct {
		text, token string
	}{
		{"error on disk sda\nok on disk sdb\nerror again", "error"},
		{"a\tb\t\tc  d\na\tb\nb", "b"},
		{"a\tb x\na\tb y", "a\tb"},
		{"  lead   and trail  \n lead\n", "lead"},
		{"p　q r\np　q s", "q"},
		{"p　q r\np　q s", "p　q"},
		{"m\u0085n o\nm\u0085n p", "m"},
		{"bad \xff\xfe utf8 \xff\nbad \xfe", "\xff"},
		{"bad \xe3\x80 x\n\xe3\x80\x80y z", "y"},
		{"x y z\nx y z\n\n", ""},
		{"blk_1 blk_12 blk_123\nblk_12 blk_1", "blk_12"},
		{"two words here\ntwo words", "two words"},
	}
	for i, s := range seeds {
		f.Add(s.text, s.token, uint8(i), uint8(i*7), uint8(i%2))
	}
	f.Fuzz(func(t *testing.T, text, token string, a, b, flags uint8) {
		lines := strings.Split(text, "\n")
		if len(lines) > 256 {
			lines = lines[:256]
		}
		recs := make([]Record, len(lines))
		for i, line := range lines {
			recs[i] = Record{Offset: 40 + int64(i), Time: ts(i * 5 % 11), Raw: line, TemplateID: uint64(1 + i%3)}
		}
		codec := CodecFlate
		if flags&1 != 0 {
			codec = CodecNone
		}
		blob, _, err := Encode(recs, codec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		all, err := r.Records()
		if err != nil {
			t.Fatal(err)
		}
		bound := func(x uint8) time.Time {
			if x%13 == 12 {
				return time.Time{}
			}
			return ts(int(x % 13))
		}
		from, to := bound(a), bound(b)
		in := func(rec Record) bool {
			return (from.IsZero() || !rec.Time.Before(from)) && (to.IsZero() || !rec.Time.After(to))
		}

		var want []int64
		var scratch []string
		for _, rec := range all {
			var hit bool
			if hit, scratch = HasToken(scratch, rec.Raw, token); hit && in(rec) {
				want = append(want, rec.Offset)
			}
		}
		got, _, err := r.SearchRangeInfo(token, from, to)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("SearchRangeInfo(%q, %v, %v) = %v, %v; want %v", token, from, to, got, err, want)
		}

		ids := []uint64{uint64(1 + a%3), uint64(1 + b%4)}
		want = want[:0]
		for _, rec := range all {
			if slices.Contains(ids, rec.TemplateID) && in(rec) {
				want = append(want, rec.Offset)
			}
		}
		got, _, err = r.ByTemplateRangeInfo(from, to, ids...)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("ByTemplateRangeInfo(%v, %v, %v) = %v, %v; want %v", from, to, ids, got, err, want)
		}

		metas, _, err := r.TemplateMetasRangeInfo(from, to)
		if err != nil {
			t.Fatal(err)
		}
		if wantMetas := refMetas(all, in); len(metas)+len(wantMetas) > 0 && !reflect.DeepEqual(metas, wantMetas) {
			t.Fatalf("TemplateMetasRangeInfo(%v, %v) = %+v, want %+v", from, to, metas, wantMetas)
		}

		offs := []int64{40 + int64(int(a)%len(all)), 40 + int64(int(b)%len(all)), 40, 40 + int64(len(all)-1), 40 + int64(int(a)%len(all))}
		rows, err := r.RecordsAt(offs)
		if err != nil {
			t.Fatal(err)
		}
		for i, off := range offs {
			if rows[i] != all[off-40] {
				t.Fatalf("RecordsAt(%v)[%d] = %+v, want %+v", offs, i, rows[i], all[off-40])
			}
		}
	})
}

// refMetas is TemplateMetasRangeInfo computed from decoded records: per
// template, ID-ascending, the count, the first maxMetaSamples offsets and
// the time bounds of the records in the range.
func refMetas(all []Record, in func(Record) bool) []TemplateMeta {
	var out []TemplateMeta
	at := map[uint64]int{}
	for _, rec := range all {
		if !in(rec) {
			continue
		}
		j, ok := at[rec.TemplateID]
		if !ok {
			j = len(out)
			at[rec.TemplateID] = j
			out = append(out, TemplateMeta{ID: rec.TemplateID, MinTime: rec.Time, MaxTime: rec.Time})
		}
		m := &out[j]
		m.Count++
		if len(m.Samples) < maxMetaSamples {
			m.Samples = append(m.Samples, rec.Offset)
		}
		if rec.Time.Before(m.MinTime) {
			m.MinTime = rec.Time
		}
		if rec.Time.After(m.MaxTime) {
			m.MaxTime = rec.Time
		}
	}
	slices.SortFunc(out, func(x, y TemplateMeta) int { return cmp.Compare(x.ID, y.ID) })
	return out
}
