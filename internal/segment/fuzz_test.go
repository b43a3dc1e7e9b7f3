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
