package segment

import (
	"bytes"
	"math/bits"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// walk.go holds the one decoder of a sealed payload. Every query that
// needs record contents inflates the payload once, parses the dictionary
// and the token table (as views into the inflated bytes), then visits
// each record's (entry, time, variable-token IDs) tuple. Only a caller
// that returns lines builds them, and only for the records it returns.

// span is one token-table entry: buf[lo:hi] of the inflated payload.
type span struct{ lo, hi uint32 }

// dictEntry is one template-dictionary entry: the records of a template
// that split into the same number of columns.
type dictEntry struct {
	tmpl uint64
	cols int
	mask []byte   // bit c set when column c is a literal; a view into the payload
	lits []uint32 // literal token IDs, in column order
	vars int      // variable column count
}

// literal reports whether column c is one of the entry's literals.
func (e *dictEntry) literal(c int) bool { return e.mask[c/8]&(1<<(c%8)) != 0 }

// payload is one inflated payload, parsed up to its record tuples.
type payload struct {
	buf     []byte
	tokens  []span
	entries []dictEntry
	records int      // the tuple count
	c       cursor   // at the first record tuple
	t       int64    // the visited record's unix-nano time
	vars    []uint32 // the visited record's variable token IDs
}

// inflate decompresses the payload (one BlockReads tick) and parses its
// token table and dictionary. Every ID it reads is checked against the
// table it refers to, so a walk over a corrupt payload returns an error
// and never panics.
func (r *Reader) inflate() (*payload, error) {
	r.blockReads.Add(1)
	buf, err := r.codec.decompress(r.payload, r.payLen)
	if err != nil {
		return nil, err
	}
	p := &payload{buf: buf, c: cursor{buf: buf}, t: r.base}
	c := &p.c

	nTokens, err := c.count(1)
	if err != nil {
		return nil, err
	}
	p.tokens = make([]span, nTokens)
	for i := range p.tokens {
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(c.remaining()) {
			return nil, corruptf("string length %d exceeds remaining %d", n, c.remaining())
		}
		p.tokens[i] = span{uint32(c.pos), uint32(c.pos + int(n))}
		c.pos += int(n)
	}

	nEntries, err := c.count(2)
	if err != nil {
		return nil, err
	}
	p.entries = make([]dictEntry, nEntries)
	var lits []uint32
	litEnd := make([]int, nEntries)
	maxVars := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.tmpl, err = c.uvarint(); err != nil {
			return nil, err
		}
		nc, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if nc == 0 || nc > uint64(c.remaining())*8+8 {
			return nil, corruptf("entry with %d columns", nc)
		}
		e.cols = int(nc)
		if e.mask, err = c.bytes((e.cols + 7) / 8); err != nil {
			return nil, err
		}
		nLit := 0
		for b, m := range e.mask {
			if rest := e.cols - 8*b; rest < 8 {
				m &= 1<<rest - 1 // bits past the last column are not columns
			}
			nLit += bits.OnesCount8(m)
		}
		for range nLit {
			id, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(nTokens) {
				return nil, corruptf("literal token ID %d of %d", id, nTokens)
			}
			lits = append(lits, uint32(id))
		}
		litEnd[i] = len(lits)
		e.vars = e.cols - nLit
		maxVars = max(maxVars, e.vars)
	}
	lo := 0
	for i := range p.entries {
		p.entries[i].lits = lits[lo:litEnd[i]:litEnd[i]]
		lo = litEnd[i]
	}

	if p.records, err = c.count(2); err != nil {
		return nil, err
	}
	if p.records != r.count {
		return nil, corruptf("payload has %d records, header says %d", p.records, r.count)
	}
	p.vars = make([]uint32, 0, maxVars)
	return p, nil
}

// walk visits every record tuple in offset order: visit gets the record's
// index in the block and its dictionary entry's index, and reads its time
// from p.t and its variable token IDs from p.vars, both valid until it
// returns. After the last tuple the payload must end.
func (p *payload) walk(visit func(i, entry int)) error {
	c := &p.c
	for i := 0; i < p.records; i++ {
		ei, err := c.uvarint()
		if err != nil {
			return err
		}
		if ei >= uint64(len(p.entries)) {
			return corruptf("record entry %d of %d", ei, len(p.entries))
		}
		e := &p.entries[ei]
		delta, err := c.varint()
		if err != nil {
			return err
		}
		p.t += delta
		p.vars = p.vars[:0]
		for range e.vars {
			id, err := c.uvarint()
			if err != nil {
				return err
			}
			if id >= uint64(len(p.tokens)) {
				return corruptf("variable token ID %d of %d", id, len(p.tokens))
			}
			p.vars = append(p.vars, uint32(id))
		}
		visit(i, int(ei))
	}
	if c.remaining() != 0 {
		return corruptf("%d trailing payload bytes", c.remaining())
	}
	return nil
}

// writeLine writes the visited record's line, its columns joined by
// single spaces (the inverse of encoder.split), to b.
func (p *payload) writeLine(b *strings.Builder, e *dictEntry) {
	lit, v := 0, 0
	for c := 0; c < e.cols; c++ {
		if c > 0 {
			b.WriteByte(' ')
		}
		var id uint32
		if e.literal(c) {
			id, lit = e.lits[lit], lit+1
		} else {
			id, v = p.vars[v], v+1
		}
		t := p.tokens[id]
		b.Write(p.buf[t.lo:t.hi])
	}
}

// tokenHits marks the token-table entries that hold token as one of
// their Tokenize tokens, and returns nil when none does. A line is its
// columns joined by single spaces and Tokenize splits at every space, so
// the line's tokens are its columns' tokens put together: a record holds
// token exactly when one of its columns' entries is marked.
//
// One substring search runs over the whole table; only the entries an
// occurrence falls inside are tokenized.
func (p *payload) tokenHits(token string) []bool {
	if token == "" || len(p.tokens) == 0 {
		return nil
	}
	tok := []byte(token)
	table := p.buf[:p.tokens[len(p.tokens)-1].hi]
	var hit []bool
	for from := int(p.tokens[0].lo); from < len(table); {
		j := bytes.Index(table[from:], tok)
		if j < 0 {
			break
		}
		at := from + j
		id := sort.Search(len(p.tokens), func(k int) bool { return int(p.tokens[k].hi) > at })
		t := p.tokens[id]
		if at < int(t.lo) || at+len(tok) > int(t.hi) {
			from = at + 1 // the occurrence overlaps a length prefix
			continue
		}
		if hasField(p.buf[t.lo:t.hi], token) {
			if hit == nil {
				hit = make([]bool, len(p.tokens))
			}
			hit[id] = true
		}
		from = int(t.hi)
	}
	return hit
}

// hasField reports whether token is one of Tokenize(string(col)), without
// converting col: it splits at Unicode whitespace rune by rune, an invalid
// byte being one non-space rune, exactly as strings.Fields does.
func hasField(col []byte, token string) bool {
	start := -1
	for i := 0; i <= len(col); {
		space, w := true, 1
		if i < len(col) {
			if c := col[i]; c < utf8.RuneSelf {
				space = asciiSpace(c)
			} else {
				var r rune
				r, w = utf8.DecodeRune(col[i:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case space && start >= 0:
			if string(col[start:i]) == token {
				return true
			}
			start = -1
		case !space && start < 0:
			start = i
		}
		i += w
	}
	return false
}
