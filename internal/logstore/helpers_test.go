package logstore

import (
	"testing"
	"time"
)

// The helpers below keep the single-record call shapes the suites
// were written in, on top of the batch-only Store interface.

// appendOne appends one record as a singleton batch.
func appendOne(s Store, ts time.Time, raw string, templateID uint64) (int64, error) {
	return s.AppendBatch(ts, []BatchRecord{{Raw: raw, TemplateID: templateID}})
}

// getOne fetches the record at one offset.
func getOne(s Store, off int64) (Record, error) {
	recs, err := s.GetBatch([]int64{off})
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}

// allRecords reads every record, in offset order, through GetBatch.
func allRecords(t *testing.T, s Store) []Record {
	t.Helper()
	offs := make([]int64, s.Len())
	for i := range offs {
		offs[i] = int64(i)
	}
	recs, err := s.GetBatch(offs)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// countSince counts records at or after cut (inclusive): the sum of
// TemplateCounts over the open-ended range starting at cut.
func countSince(s Store, cut time.Time) int {
	n := 0
	for _, c := range s.TemplateCounts(TimeRange{From: cut}) {
		n += c
	}
	return n
}
