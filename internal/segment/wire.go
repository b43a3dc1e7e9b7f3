package segment

import "encoding/binary"

// wire.go holds the low-level varint cursor shared by the builder and the
// reader. The reader side never panics on malformed input: every read
// reports corruption through an error, and allocation sizes are bounded by
// the bytes actually remaining, so a hostile length prefix cannot force a
// huge allocation.

// appendUvarint appends v to dst.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendVarint appends the zigzag encoding of v to dst.
func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// cursor is a bounds-checked reader over a byte slice.
type cursor struct {
	buf []byte
	pos int
}

func (c *cursor) remaining() int { return len(c.buf) - c.pos }

func (c *cursor) uvarint() (uint64, error) {
	if c.pos < len(c.buf) && c.buf[c.pos] < 0x80 {
		// Most IDs and lengths fit one byte.
		c.pos++
		return uint64(c.buf[c.pos-1]), nil
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad varint at %d", c.pos)
	}
	c.pos += n
	return v, nil
}

// count reads a uvarint that counts items of at least minItemBytes bytes
// each and rejects values the remaining buffer cannot possibly hold. This
// is what keeps decode allocations proportional to the input.
func (c *cursor) count(minItemBytes int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if minItemBytes < 1 {
		minItemBytes = 1
	}
	if v > uint64(c.remaining()/minItemBytes) {
		return 0, corruptf("count %d exceeds remaining %d bytes", v, c.remaining())
	}
	return int(v), nil
}

// bytes reads exactly n bytes.
func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, corruptf("need %d bytes, have %d", n, c.remaining())
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}
