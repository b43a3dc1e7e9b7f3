package segment

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync/atomic"
)

// Codec selects the payload compression scheme of a segment.
type Codec uint8

const (
	// CodecNone stores the payload uncompressed. The columnar encoding
	// alone (shared templates, interned tokens, varint deltas) already
	// shrinks typical log data substantially.
	CodecNone Codec = 0
	// CodecFlate compresses the payload with DEFLATE (stdlib flate) at
	// level 5.
	CodecFlate Codec = 1
)

// flateLevel is the DEFLATE level of every seal: the cheapest level
// whose output stays within 1% of the default level (6) on every
// corpus. Levels below it cost 3–5% more bytes on HDFS and Thunderbird.
// The level is not part of the format; a reader inflates any level.
const flateLevel = 5

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec maps a config string to a Codec. The empty string selects
// CodecFlate, the production default.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "flate":
		return CodecFlate, nil
	case "none":
		return CodecNone, nil
	default:
		return 0, fmt.Errorf("segment: unknown codec %q (want none or flate)", s)
	}
}

// flateState is one cached DEFLATE writer together with the sink it
// appends to, so a seal reuses the compressor's window and hash tables
// (several hundred KiB) instead of allocating them per block.
type flateState struct {
	w   *flate.Writer
	out appendWriter
}

// appendWriter is an io.Writer that appends to a byte slice.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// spareFlate is the writer cache: a single slot that, unlike a
// sync.Pool, survives garbage collections (see spareEncoder).
var spareFlate atomic.Pointer[flateState]

// getFlate takes the cached writer, or builds one.
func getFlate() *flateState {
	if s := spareFlate.Swap(nil); s != nil {
		return s
	}
	s := &flateState{}
	// NewWriter fails only on an invalid level.
	s.w, _ = flate.NewWriter(&s.out, flateLevel)
	return s
}

// inflater is one cached DEFLATE reader together with the source it
// reads, so a sealed read reuses the decompressor's 32 KiB window and
// code tables instead of allocating them per block.
type inflater struct {
	r   io.ReadCloser // a flate reader; it implements flate.Resetter
	src bytes.Reader
}

// spareInflater is the reader cache: a single slot, like spareFlate.
var spareInflater atomic.Pointer[inflater]

// getInflater takes the cached reader, or builds one, set to read src.
func getInflater(src []byte) *inflater {
	f := spareInflater.Swap(nil)
	if f == nil {
		f = &inflater{}
		f.r = flate.NewReader(&f.src)
	}
	f.src.Reset(src)
	// Reset fails only when the dictionary is invalid; there is none.
	f.r.(flate.Resetter).Reset(&f.src, nil)
	return f
}

// release drops the reference to the caller's blob and puts f back in
// the slot.
func (f *inflater) release() {
	f.src.Reset(nil)
	spareInflater.Store(f)
}

// compress appends the codec's encoding of src to dst and returns the
// extended slice.
func (c Codec) compress(dst, src []byte) ([]byte, error) {
	switch c {
	case CodecNone:
		return append(dst, src...), nil
	case CodecFlate:
		s := getFlate()
		s.out.b = dst
		s.w.Reset(&s.out)
		_, err := s.w.Write(src)
		if err == nil {
			err = s.w.Close()
		}
		dst, s.out.b = s.out.b, nil
		spareFlate.Store(s)
		if err != nil {
			return nil, fmt.Errorf("segment: flate: %w", err)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("segment: compress with unknown codec %s", c)
	}
}

// decompress decodes src, which must expand to exactly rawLen bytes. The
// length is part of the trusted header, so a payload that inflates to a
// different size is corruption, and the reader never allocates more than
// rawLen regardless of what the compressed stream claims.
func (c Codec) decompress(src []byte, rawLen int) ([]byte, error) {
	switch c {
	case CodecNone:
		if len(src) != rawLen {
			return nil, corruptf("stored payload length %d, header says %d", len(src), rawLen)
		}
		return src, nil
	case CodecFlate:
		// DEFLATE expands at most ~1032x (1 bit per symbol run); a
		// header claiming more is corrupt, and rejecting it here keeps
		// the allocation below proportional to the actual input size —
		// a crafted blob cannot force a multi-GiB make().
		if rawLen > len(src)*1040+64 {
			return nil, corruptf("claimed payload length %d impossible from %d compressed bytes", rawLen, len(src))
		}
		f := getInflater(src)
		defer f.release()
		dst := make([]byte, rawLen)
		if _, err := io.ReadFull(f.r, dst); err != nil {
			return nil, corruptf("flate payload: %v", err)
		}
		// One extra read distinguishes "exactly rawLen" from "more data".
		var one [1]byte
		if n, _ := f.r.Read(one[:]); n != 0 {
			return nil, corruptf("flate payload longer than header length %d", rawLen)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("segment: decompress with unknown codec %s", c)
	}
}
