package logstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/segment"
)

// The store oracle is a differential test of the read side: a naive
// slice of records answers every read method by filtering linearly, and
// CompactingStore — in memory, and under a directory with close/reopen —
// must answer the same after every step of a seeded random op sequence
// that appends, seals and waits. A failing sequence shrinks to a minimal
// op list, which the failure prints.

type oracleOpKind int

const (
	opAppend oracleOpKind = iota
	opSeal
	opWaitIdle
	opReopen
	opCheck
)

// oracleOp is one step of a sequence. A check draws its queries from its
// own seed, so a shrunk sequence replays the same questions.
type oracleOp struct {
	kind  oracleOpKind
	sec   int           // opAppend: the batch timestamp
	batch []BatchRecord // opAppend
	seed  int64         // opCheck
}

func (o oracleOp) String() string {
	switch o.kind {
	case opAppend:
		var b strings.Builder
		fmt.Fprintf(&b, "append ts(%d)", o.sec)
		for _, r := range o.batch {
			fmt.Fprintf(&b, " {%q %d}", r.Raw, r.TemplateID)
		}
		return b.String()
	case opSeal:
		return "seal"
	case opWaitIdle:
		return "wait-idle"
	case opReopen:
		return "close+reopen"
	}
	return fmt.Sprintf("check seed=%d", o.seed)
}

var (
	oracleWords  = []string{"open", "close", "error", "retry", "disk", "net", "db"}
	oracleTokens = append([]string{"zzz", "rro", "", "id-1", "id-17", "open disk"}, oracleWords...)
)

// oracleLine builds a log line from a small vocabulary, so tokens repeat
// across records; now and then with a tab or a run of spaces.
func oracleLine(rng *rand.Rand) string {
	sep := " "
	switch rng.Intn(10) {
	case 0:
		sep = "\t"
	case 1:
		sep = "  "
	}
	return oracleWords[rng.Intn(len(oracleWords))] + sep + oracleWords[rng.Intn(len(oracleWords))] + " id-" + fmt.Sprint(rng.Intn(20))
}

// genOracleOps draws a sequence of n ops. Timestamps come from a small
// window, so batches repeat them and arrive out of order.
func genOracleOps(rng *rand.Rand, n int, reopen bool) []oracleOp {
	ops := make([]oracleOp, 0, n)
	for len(ops) < n {
		switch p := rng.Intn(20); {
		case p < 10:
			size := []int{0, 1, 1, 2, 5, 17, 40}[rng.Intn(7)]
			batch := make([]BatchRecord, size)
			for i := range batch {
				batch[i] = BatchRecord{Raw: oracleLine(rng), TemplateID: uint64(rng.Intn(5))}
			}
			ops = append(ops, oracleOp{kind: opAppend, sec: rng.Intn(30), batch: batch})
		case p < 12:
			ops = append(ops, oracleOp{kind: opSeal})
		case p < 13:
			ops = append(ops, oracleOp{kind: opWaitIdle})
		case p < 14 && reopen:
			ops = append(ops, oracleOp{kind: opReopen})
		default:
			ops = append(ops, oracleOp{kind: opCheck, seed: rng.Int63()})
		}
	}
	return append(ops, oracleOp{kind: opWaitIdle}, oracleOp{kind: opCheck, seed: rng.Int63()})
}

// runOracle replays ops against a fresh store and the oracle, and
// returns the first disagreement. dir empty is the in-memory store.
func runOracle(dir string, segBytes int64, ops []oracleOp) (err error) {
	cfg := CompactConfig{Dir: dir, SegmentBytes: segBytes, Codec: segment.CodecFlate}
	s, err := OpenCompacting("t", cfg)
	if err != nil {
		return err
	}
	defer func() {
		if s == nil {
			return
		}
		if cerr := s.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	var want []Record
	for i, o := range ops {
		switch o.kind {
		case opAppend:
			first, err := s.AppendBatch(ts(o.sec), o.batch)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			if len(o.batch) > 0 && first != int64(len(want)) {
				return fmt.Errorf("op %d: AppendBatch first offset %d, want %d", i, first, len(want))
			}
			for _, r := range o.batch {
				want = append(want, Record{Offset: int64(len(want)), Time: ts(o.sec), Raw: r.Raw, TemplateID: r.TemplateID})
			}
		case opSeal:
			if err := s.Seal(); err != nil {
				return fmt.Errorf("op %d: seal: %w", i, err)
			}
		case opWaitIdle:
			s.WaitIdle()
			if err := s.SealError(); err != nil {
				return fmt.Errorf("op %d: seal error: %w", i, err)
			}
		case opReopen:
			if err := s.Close(); err != nil {
				return fmt.Errorf("op %d: close: %w", i, err)
			}
			if s, err = OpenCompacting("t", cfg); err != nil {
				return fmt.Errorf("op %d: reopen: %w", i, err)
			}
		case opCheck:
			if err := checkOracle(s, want, rand.New(rand.NewSource(o.seed))); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return nil
}

// sealedBounds returns the time bounds of every sealed block.
func sealedBounds(s *CompactingStore) [][2]time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][2]time.Time
	for _, b := range s.blocks {
		if b.seg == nil {
			continue
		}
		// Over the zero range a sealed block returns its metadata as
		// sealed, and every record belongs to one of its templates.
		metas, _, err := b.seg.TemplateMetasRangeInfo(time.Time{}, time.Time{})
		if err != nil || len(metas) == 0 {
			continue
		}
		lo, hi := metas[0].MinTime, metas[0].MaxTime
		for _, m := range metas[1:] {
			if m.MinTime.Before(lo) {
				lo = m.MinTime
			}
			if m.MaxTime.After(hi) {
				hi = m.MaxTime
			}
		}
		out = append(out, [2]time.Time{lo, hi})
	}
	return out
}

// oracleRanges draws the time ranges one check queries: zero, empty,
// one-sided, endpoints equal to record times, a random window, and the
// exact bounds of a sealed block.
func oracleRanges(rng *rand.Rand, s *CompactingStore, want []Record) []TimeRange {
	at := func() time.Time {
		if len(want) == 0 || rng.Intn(4) == 0 {
			return ts(rng.Intn(32) - 1)
		}
		return want[rng.Intn(len(want))].Time
	}
	out := []TimeRange{{}, {From: ts(20), To: ts(10)}, {From: at()}, {To: at()}}
	a, b := at(), at()
	if b.Before(a) {
		a, b = b, a
	}
	out = append(out, TimeRange{From: a, To: b}, TimeRange{From: a, To: a})
	if bounds := sealedBounds(s); len(bounds) > 0 {
		bb := bounds[rng.Intn(len(bounds))]
		out = append(out, TimeRange{From: bb[0], To: bb[1]})
	}
	return out
}

// checkOracle compares every read method against the linear truth.
func checkOracle(s *CompactingStore, want []Record, rng *rand.Rand) error {
	if s.Len() != len(want) {
		return fmt.Errorf("Len = %d, want %d", s.Len(), len(want))
	}
	var bytes int64
	for _, r := range want {
		bytes += int64(len(r.Raw))
	}
	if s.Bytes() != bytes {
		return fmt.Errorf("Bytes = %d, want %d", s.Bytes(), bytes)
	}

	// GetBatch: random offsets in random order with repeats; any offset
	// out of range fails the whole call.
	if len(want) > 0 {
		offs := make([]int64, 1+rng.Intn(8))
		for i := range offs {
			offs[i] = rng.Int63n(int64(len(want)))
		}
		got, err := s.GetBatch(offs)
		if err != nil {
			return fmt.Errorf("GetBatch(%v): %v", offs, err)
		}
		for i, off := range offs {
			w := want[off]
			if g := got[i]; g.Offset != w.Offset || !g.Time.Equal(w.Time) || g.Raw != w.Raw || g.TemplateID != w.TemplateID {
				return fmt.Errorf("GetBatch(%v)[%d] = %+v, want %+v", offs, i, g, w)
			}
		}
	}
	for _, bad := range []int64{-1, int64(len(want))} {
		offs := []int64{bad}
		if len(want) > 0 {
			offs = []int64{0, bad}
		}
		if _, err := s.GetBatch(offs); err == nil {
			return fmt.Errorf("GetBatch(%v) of %d records succeeded", offs, len(want))
		}
	}

	for _, tr := range oracleRanges(rng, s, want) {
		ids := rng.Perm(6)[:1+rng.Intn(3)] // distinct; ID 5 is never stored
		tids := make([]uint64, len(ids))
		for i, id := range ids {
			tids[i] = uint64(id)
		}
		var wantOffs []int64
		for _, r := range want {
			if tr.Contains(r.Time) && slices.Contains(tids, r.TemplateID) {
				wantOffs = append(wantOffs, r.Offset)
			}
		}
		if got := s.ByTemplateRange(tr, tids...); !slices.Equal(got, wantOffs) {
			return fmt.Errorf("ByTemplateRange(%v, %v) = %v, want %v", tr, tids, got, wantOffs)
		}

		token := oracleTokens[rng.Intn(len(oracleTokens))]
		wantOffs = nil
		for _, r := range want {
			if hit, _ := segment.HasToken(nil, r.Raw, token); hit && tr.Contains(r.Time) {
				wantOffs = append(wantOffs, r.Offset)
			}
		}
		if got := s.SearchRange(token, tr); !slices.Equal(got, wantOffs) {
			return fmt.Errorf("SearchRange(%q, %v) = %v, want %v", token, tr, got, wantOffs)
		}

		// Each block keeps at most five samples per template, so up to
		// five the samples are exactly the earliest in-range offsets.
		maxSamples := rng.Intn(6)
		wantGroups := map[uint64]TemplateGroup{}
		for _, r := range want {
			if !tr.Contains(r.Time) {
				continue
			}
			g := wantGroups[r.TemplateID]
			g.Count++
			if len(g.Samples) < maxSamples {
				g.Samples = append(g.Samples, r.Offset)
			}
			wantGroups[r.TemplateID] = g
		}
		groups := s.GroupedCounts(maxSamples, tr)
		counts := s.TemplateCounts(tr)
		if len(groups) != len(wantGroups) || len(counts) != len(wantGroups) {
			return fmt.Errorf("range %v: %d groups and %d counts, want %d templates", tr, len(groups), len(counts), len(wantGroups))
		}
		for id, w := range wantGroups {
			if g := groups[id]; g.Count != w.Count || !slices.Equal(g.Samples, w.Samples) {
				return fmt.Errorf("GroupedCounts(%d, %v)[%d] = %+v, want %+v", maxSamples, tr, id, g, w)
			}
			if counts[id] != w.Count {
				return fmt.Errorf("TemplateCounts(%v)[%d] = %d, want %d", tr, id, counts[id], w.Count)
			}
		}
	}
	return nil
}

// shrinkOracle drops every chunk of ops whose removal keeps the sequence
// failing, trying halves, then quarters, down to single ops.
func shrinkOracle(fails func([]oracleOp) error, ops []oracleOp) []oracleOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(ops); {
			cand := append(slices.Clone(ops[:start]), ops[start+chunk:]...)
			if fails(cand) != nil {
				ops = cand
				continue
			}
			start += chunk
		}
	}
	return ops
}

// TestStoreMatchesOracle is the store's differential gate: seeded random
// op sequences over the in-memory store and over a directory with
// close/reopen, at seal sizes from a few records to never.
func TestStoreMatchesOracle(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			runs := 0
			run := func(segBytes int64, ops []oracleOp) error {
				dir := ""
				if disk {
					runs++
					dir = filepath.Join(root, fmt.Sprint(runs))
					defer os.RemoveAll(dir)
				}
				return runOracle(dir, segBytes, ops)
			}
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				segBytes := []int64{64, 300, 1500, 1 << 30}[rng.Intn(4)]
				ops := genOracleOps(rng, 40, disk)
				if err := run(segBytes, ops); err != nil {
					shrunk := shrinkOracle(func(ops []oracleOp) error { return run(segBytes, ops) }, ops)
					var b strings.Builder
					for i, o := range shrunk {
						fmt.Fprintf(&b, "\n  %2d %v", i, o)
					}
					t.Fatalf("seed %d, SegmentBytes %d: %v\nminimal failing ops (%d of %d), failing with %v:%s",
						seed, segBytes, err, len(shrunk), len(ops), run(segBytes, shrunk), b.String())
				}
			}
		})
	}
}
