package segment

import "testing"

// FuzzOpen throws arbitrary bytes at the segment decoder. The invariant:
// Open and a full Records decode either succeed or return an error —
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
// tok) is true exactly when tok is one of Tokenize(raw). The seeds aim at
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
		// The returned scratch is reusable: a second call agrees.
		if again, _ := HasToken(scratch, raw, tok); again != got {
			t.Fatalf("HasToken(%q, %q) with reused scratch = %v, first call %v", raw, tok, again, got)
		}
	})
}
