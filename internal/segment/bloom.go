package segment

import "bytebrain/internal/encode"

// bloom is a fixed-size bloom filter over 64-bit token hashes. Segments
// store one so token search can skip blocks that cannot contain the
// queried token without decompressing the payload.
//
// The two index streams derive from the single encode.Hash64 value by
// splitting it, the standard Kirsch–Mitzenmacher construction: index_i =
// h1 + i*h2. With bloomBitsPerToken=10 and bloomHashes=4 the false-positive
// rate is ~1.2%.
type bloom struct {
	bits []byte
	k    int
}

const (
	bloomBitsPerToken = 10
	bloomHashes       = 4
	// maxBloomBytes caps the filter a reader will accept from disk.
	maxBloomBytes = 16 << 20
)

// newBloom sizes a filter for n distinct tokens, capped at the size the
// reader accepts (huge segments degrade to a higher false-positive rate
// rather than producing blobs Open would reject). Encode passes the
// distinct count: sized by total token occurrences, a block of repeated
// lines would carry a filter hundreds of times larger than it needs.
func newBloom(n int) *bloom {
	bits := (n*bloomBitsPerToken + 7) / 8
	if bits < 8 {
		bits = 8
	}
	if bits > maxBloomBytes {
		bits = maxBloomBytes
	}
	return &bloom{bits: make([]byte, bits), k: bloomHashes}
}

func (b *bloom) addHash(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)|1
	m := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		idx := (h1 + uint32(i)*h2) % m
		b.bits[idx/8] |= 1 << (idx % 8)
	}
}

func (b *bloom) add(token string) { b.addHash(encode.Hash64(token)) }

// mayContain reports whether token was possibly added. False means
// definitely absent.
func (b *bloom) mayContain(token string) bool {
	if len(b.bits) == 0 {
		return true // degenerate filter filters nothing
	}
	h := encode.Hash64(token)
	h1, h2 := uint32(h), uint32(h>>32)|1
	m := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		idx := (h1 + uint32(i)*h2) % m
		if b.bits[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}
