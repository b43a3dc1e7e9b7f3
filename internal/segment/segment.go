// Package segment implements the sealed-segment storage format of the log
// service: a template-aware, columnar, optionally compressed on-disk block
// of log records.
//
// The paper requires every record to carry its template ID "computed along
// with other traditional text indices before logs can be written" to the
// append-only topic. Because parsing already factors each line into a
// (template, variables) pair, a sealed block does not need to store raw
// lines verbatim: records with the same structure share one dictionary
// entry holding the literal tokens, and each record stores only its
// (dictionary-entry, timestamp-delta, variable-token) tuple, CLP-style.
// Variable tokens are interned in a per-segment token table and referenced
// by varint IDs; the whole payload is then optionally DEFLATE-compressed
// (level 5). A record that repeats an earlier line of its block under the
// same template reuses that record's columns and variable token IDs
// instead of being split and interned again.
//
// A small uncompressed metadata section — per-template record counts,
// sample offsets and min/max timestamps, the block time range, and a
// bloom filter over the token hashes of internal/encode — stays readable
// without touching the payload, so grouped queries (ByTemplate), token
// search, and time-range queries push their predicate down to segment
// metadata and never decompress non-matching blocks; in a block a time
// range straddles, templates whose own bounds fall inside or outside the
// range are decided without decoding either.
package segment

import (
	"fmt"
	"strings"
	"time"
)

// Record is one log record inside a segment, and — as logstore.Record,
// an alias — in the hot block before it seals, so sealing encodes the
// hot records as they are.
type Record struct {
	// Offset is the topic-global offset of the record.
	Offset int64
	// Time is the ingestion timestamp (stored at nanosecond precision).
	Time time.Time
	// Raw is the original log line, recovered bit-exact on read.
	Raw string
	// TemplateID is the template matched at ingestion.
	TemplateID uint64
}

const (
	// magic identifies a segment file.
	magic = "BBSG"
	// formatVersion is bumped on any incompatible layout change; Open
	// accepts exactly this version. Version 2 added per-template sample
	// offsets to the metadata section so grouped queries return example
	// offsets without decompressing the payload; version 3 added
	// per-template min/max timestamps so time-range queries prune
	// templates (not just whole blocks) without decompressing.
	formatVersion = 3
	// maxMetaSamples is how many example record offsets the metadata
	// stores per template — matching the query layer's per-row sample
	// budget.
	maxMetaSamples = 5
	// headerSize is the fixed-size portion before meta and payload:
	// magic(4) version(1) codec(1) reserved(2) count(4) firstOffset(8)
	// baseTime(8) minTime(8) maxTime(8) rawBytes(8) metaLen(4)
	// payloadRawLen(4) payloadLen(4).
	headerSize = 4 + 1 + 1 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4
	// crcSize is the trailing IEEE CRC-32 over everything before it.
	crcSize = 4
	// maxRecords bounds a single segment; sealing happens far earlier.
	maxRecords = 1 << 28
)

// Tokenize is the single search tokenization of the segment layer: the
// whitespace-delimited tokens of a raw line. The bloom filter built at
// seal time, HasToken — the per-line predicate of hot token search — and
// hasField — its per-column form in sealed search — all tokenize this
// way; a divergence between the write and read sides would produce
// silent false negatives (the bloom filter would screen out blocks that
// do contain the token under the other tokenization).
func Tokenize(raw string) []string { return strings.Fields(raw) }

// HasToken reports whether token is one of Tokenize(raw), the one
// definition of a search hit: hot blocks test it per line, and sealed
// blocks test the equivalent hasField per token-table entry. A line
// that does not contain token as a substring is rejected without
// tokenizing; the rest are tokenized into scratch, which is returned
// for reuse so a scan over many lines allocates one buffer.
func HasToken(scratch []string, raw, token string) (bool, []string) {
	if token == "" || !strings.Contains(raw, token) {
		return false, scratch
	}
	scratch = TokenizeAppend(scratch[:0], raw)
	for _, tok := range scratch {
		if tok == token {
			return true, scratch
		}
	}
	return false, scratch
}

// TokenizeAppend appends raw's tokens (exactly Tokenize's output) to dst
// and returns the extended slice, so per-record hot loops can reuse one
// buffer instead of allocating a fields slice per line. ASCII lines are
// scanned in place; a line with any non-ASCII byte goes through
// strings.Fields, whose Unicode whitespace handling the fast path does
// not replicate.
func TokenizeAppend(dst []string, raw string) []string {
	for i := 0; i < len(raw); i++ {
		if raw[i] >= 0x80 {
			return append(dst, strings.Fields(raw)...)
		}
	}
	start := -1
	for i := 0; i < len(raw); i++ {
		if asciiSpace(raw[i]) {
			if start >= 0 {
				dst = append(dst, raw[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, raw[start:])
	}
	return dst
}

// asciiSpace mirrors the whitespace class strings.Fields uses for ASCII
// bytes.
func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// Stats summarizes one encoded segment.
type Stats struct {
	// Records is the record count.
	Records int
	// RawBytes is the sum of raw line lengths stored in the segment.
	RawBytes int64
	// EncodedBytes is the full encoded segment size (header + metadata +
	// payload + checksum).
	EncodedBytes int64
	// DictEntries is the number of template-dictionary entries.
	DictEntries int
	// Tokens is the size of the interned token table.
	Tokens int
}

// Ratio returns EncodedBytes / RawBytes, the compression ratio (lower is
// better; 0 when the segment stored no raw bytes).
func (s Stats) Ratio() float64 {
	if s.RawBytes == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.RawBytes)
}

// corruptf returns a decoding error; every malformed-input path funnels
// through it so the fuzz target can tell corruption (an error) from a
// decoder bug (a panic).
func corruptf(format string, args ...any) error {
	return fmt.Errorf("segment: corrupt: "+format, args...)
}
