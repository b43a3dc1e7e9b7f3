package segment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bytebrain/internal/datagen"
)

// assertNoFalseNegatives encodes recs and fails if the bloom screens out
// any Tokenize token of any record.
func assertNoFalseNegatives(t testing.TB, recs []Record) {
	t.Helper()
	blob, _, err := Encode(recs, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		for _, tok := range Tokenize(rec.Raw) {
			if !r.meta.bloom.mayContain(tok) {
				t.Fatalf("record %d (%q): bloom screens out its token %q", i, rec.Raw, tok)
			}
		}
	}
}

// block4MiB returns the first 4 MiB of raw lines of a LogHub-2.0 cut as
// template-tagged records: the default seal size.
func block4MiB(t testing.TB, name string) []Record {
	t.Helper()
	// 80,000 lines hold 4 MiB on every dataset used here.
	ds, err := datagen.LogHub2(name, 80000/float64(datagen.FullLogHub2Lines(name)), 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := datasetRecords(ds)
	raw := 0
	for i, r := range recs {
		if raw += len(r.Raw); raw > 4<<20 {
			return recs[:i]
		}
	}
	t.Fatalf("%s: cut holds only %d raw bytes, want 4 MiB", name, raw)
	return nil
}

func TestBloomNoFalseNegatives(t *testing.T) {
	// Each whitespace Tokenize splits on but the column split does not,
	// between tokens no other line has: a line wrongly taken as plain
	// loses both from the bloom.
	var odd []Record
	for i, sep := range []string{"\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2028", "\u3000"} {
		raw := fmt.Sprintf("left%d%sright%d end", i, sep, i)
		odd = append(odd, Record{Offset: int64(i), Time: ts(i), Raw: raw, TemplateID: 1})
	}
	assertNoFalseNegatives(t, odd)
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertNoFalseNegatives(t, datasetRecords(ds))
	}
	for seed := int64(1); seed <= 20; seed++ {
		assertNoFalseNegatives(t, randomRecords(rand.New(rand.NewSource(seed)), 500, 0))
	}
	if testing.Short() {
		return
	}
	for _, name := range []string{"HDFS", "BGL"} {
		assertNoFalseNegatives(t, block4MiB(t, name))
	}
}

// TestBloomFalsePositiveRate measures the bloom on full-size blocks: at
// 10 bits per distinct token and k=4 the expected rate is ~1.2%.
func TestBloomFalsePositiveRate(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 4 MiB blocks")
	}
	const probes = 100000
	for _, name := range []string{"HDFS", "BGL"} {
		recs := block4MiB(t, name)
		present := make(map[string]bool)
		for _, r := range recs {
			for _, tok := range Tokenize(r.Raw) {
				present[tok] = true
			}
		}
		blob, _, err := Encode(recs, CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		fp, absent := 0, 0
		for i := 0; absent < probes; i++ {
			tok := fmt.Sprintf("absent%d", i)
			if present[tok] {
				continue
			}
			absent++
			if r.meta.bloom.mayContain(tok) {
				fp++
			}
		}
		rate := float64(fp) / probes
		t.Logf("%s: %d records, %d distinct tokens, %d-byte bloom, %.2f%% false positives",
			name, len(recs), len(present), len(r.meta.bloom.bits), 100*rate)
		if rate > 0.02 {
			t.Errorf("%s: false-positive rate %.2f%% exceeds 2%%", name, 100*rate)
		}
	}
}

// TestBloomSizedByDistinctTokens pins the sizing: a block of one
// repeated line needs a bloom for its five tokens, not for 50,000.
func TestBloomSizedByDistinctTokens(t *testing.T) {
	line := "Receiving block blk_1 src: /10.0.0.1:50010"
	if n := len(Tokenize(line)); n != 5 {
		t.Fatalf("line has %d tokens, want 5", n)
	}
	recs := make([]Record, 10000)
	for i := range recs {
		recs[i] = Record{Offset: int64(i), Time: ts(i), Raw: line, TemplateID: 1}
	}
	blob, _, err := Encode(recs, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.meta.bloom.bits); n > 64 {
		t.Fatalf("bloom of 10,000 copies of one 5-token line is %d bytes, want ≤ 64", n)
	}
	for _, tok := range strings.Fields(line) {
		if !r.meta.bloom.mayContain(tok) {
			t.Fatalf("bloom screens out %q", tok)
		}
	}
}
