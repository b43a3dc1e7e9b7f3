package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// sampleLogs builds a small mixed stream with known structure: wakelock
// acquire/release lines (Fig. 1 style) plus HDFS-ish block receives.
func sampleLogs(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	tags := []string{"View Lock", "*launch*", "WindowManager", "RILJ_ACK_WL"}
	names := []string{"systemui", "android", "phone"}
	var out []string
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			out = append(out, fmt.Sprintf(`release:lock=%d, flg=0x0, tag="%s", name=%s, ws=null`,
				r.Intn(5000), tags[r.Intn(len(tags))], names[r.Intn(len(names))]))
		case 1:
			out = append(out, fmt.Sprintf(`acquire:lock=%d, flg=0x1, tag="%s", name=%s, ws=null`,
				r.Intn(5000), tags[r.Intn(len(tags))], names[r.Intn(len(names))]))
		default:
			out = append(out, fmt.Sprintf("Receiving block blk_%d src: /10.0.0.%d:50010", r.Int63(), r.Intn(255)))
		}
	}
	return out
}

func TestTrainEmptyInput(t *testing.T) {
	p := New(Options{Seed: 1})
	res, err := p.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Len() != 0 || len(res.Assign) != 0 {
		t.Error("empty training produced nodes")
	}
	if _, err := p.NewMatcher(res.Model); err == nil {
		t.Error("NewMatcher accepted an empty model")
	}
}

func TestTrainProducesValidModel(t *testing.T) {
	p := New(Options{Seed: 1})
	logs := sampleLogs(500, 2)
	res, err := p.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(logs) {
		t.Fatalf("assign length %d, want %d", len(res.Assign), len(logs))
	}
	for i, id := range res.Assign {
		if id == 0 {
			t.Fatalf("log %d unassigned", i)
		}
		if _, ok := res.Model.Nodes[id]; !ok {
			t.Fatalf("log %d assigned to unknown node %d", i, id)
		}
	}
}

func TestTrainAssignsSameTemplateToSameStructure(t *testing.T) {
	p := New(Options{Seed: 3})
	logs := []string{
		"connected to 10.0.0.1:80 ok",
		"connected to 10.9.3.7:443 ok",
		"connected to 172.16.0.4:22 ok",
		"disk sda1 failed with code 5",
		"disk sdb2 failed with code 7",
	}
	res, err := p.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	// Most-precise assignments may keep rare two-log structures separate
	// (early-stop rule 1); grouping happens at query-time rollup.
	at := func(i int) uint64 {
		n, err := res.Model.TemplateAt(res.Assign[i], 0.6)
		if err != nil {
			t.Fatal(err)
		}
		return n.ID
	}
	if at(0) != at(1) || at(1) != at(2) {
		t.Errorf("connect logs split at threshold 0.6: %v %v %v", at(0), at(1), at(2))
	}
	if at(3) != at(4) {
		t.Errorf("disk logs split at threshold 0.6: %v %v", at(3), at(4))
	}
	if at(0) == at(3) {
		t.Error("distinct structures merged")
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	logs := sampleLogs(300, 4)
	a, err := New(Options{Seed: 11}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Seed: 11}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Model.Len() != b.Model.Len() {
		t.Fatalf("node counts differ: %d vs %d", a.Model.Len(), b.Model.Len())
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs across identical runs", i)
		}
	}
}

func TestTrainParallelismConsistency(t *testing.T) {
	// Group-level seeding makes the tree set independent of the worker
	// count.
	logs := sampleLogs(400, 6)
	seq, err := New(Options{Seed: 9, Parallelism: 1}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(Options{Seed: 9, Parallelism: 8}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Model.Len() != par.Model.Len() {
		t.Errorf("node counts differ: seq %d, par %d", seq.Model.Len(), par.Model.Len())
	}
	seqT := templateSet(seq.Model)
	parT := templateSet(par.Model)
	if len(seqT) != len(parT) {
		t.Errorf("template sets differ: %d vs %d", len(seqT), len(parT))
	}
	for k := range seqT {
		if !parT[k] {
			t.Errorf("template %q missing in parallel run", k)
		}
	}
}

func templateSet(m *Model) map[string]bool {
	s := make(map[string]bool, m.Len())
	for _, n := range m.Nodes {
		s[fmt.Sprintf("%d|%s", n.Depth, n.Text())] = true
	}
	return s
}

func TestMatcherMatchesTrainingLogs(t *testing.T) {
	p := New(Options{Seed: 5})
	logs := sampleLogs(400, 8)
	res, err := p.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range logs {
		r := m.Match(line)
		if r.New {
			t.Fatalf("training log %d (%q) missed all templates", i, line)
		}
	}
}

func TestMatcherLinearAgreesWithIndexed(t *testing.T) {
	logs := sampleLogs(300, 12)
	pIdx := New(Options{Seed: 5})
	res, err := pIdx.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := pIdx.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	pLin := New(Options{Seed: 5, LinearMatch: true})
	res2, err := pLin.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := pLin.NewMatcher(res2.Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range logs {
		a := idx.Match(line)
		b := lin.Match(line)
		if a.Template != b.Template {
			t.Fatalf("indexed %q vs linear %q for %q", a.Template, b.Template, line)
		}
	}
}

func TestMatcherInsertsTemporaryForUnseen(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	before := res.Model.Len()
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	novel := "completely novel subsystem melted down badly today"
	r1 := m.Match(novel)
	if !r1.New {
		t.Fatal("unseen log did not create a temporary template")
	}
	// The trained model is immutable: the temporary lives in the
	// matcher's overlay, not in res.Model.
	if res.Model.Len() != before {
		t.Errorf("trained model mutated: %d nodes, want %d", res.Model.Len(), before)
	}
	if got := m.TemporaryCount(); got != 1 {
		t.Errorf("TemporaryCount = %d, want 1", got)
	}
	n := m.NodeByID(r1.NodeID)
	if n == nil || !n.Temporary || n.Saturation != 1.0 {
		t.Errorf("temporary node wrong: %+v", n)
	}
	// SnapshotModel folds the overlay back in for the next training
	// cycle, collision-free with trained IDs.
	snap := m.SnapshotModel()
	if snap.Len() != before+1 {
		t.Errorf("snapshot has %d nodes, want %d", snap.Len(), before+1)
	}
	if sn := snap.Nodes[r1.NodeID]; sn == nil || !sn.Temporary {
		t.Errorf("snapshot lost the temporary: %+v", sn)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("snapshot model invalid: %v", err)
	}
	// Second occurrence matches the temporary template without another
	// insertion.
	r2 := m.Match(novel)
	if r2.New || r2.NodeID != r1.NodeID {
		t.Errorf("repeat match: %+v, want reuse of %d", r2, r1.NodeID)
	}
}

func TestMatcherConcurrentSafe(t *testing.T) {
	p := New(Options{Seed: 5, Parallelism: 8})
	res, err := p.Train(sampleLogs(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lines := sampleLogs(200, int64(100+g))
			for _, l := range lines {
				m.Match(l)
			}
			// Mix in some novel lines to exercise insertion.
			for i := 0; i < 20; i++ {
				m.Match(fmt.Sprintf("novel event %d from goroutine %d with extras", i%7, g%3))
			}
		}(g)
	}
	wg.Wait()
	if err := res.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotModel().Validate(); err != nil {
		t.Fatalf("snapshot with temporaries invalid: %v", err)
	}
}

func TestMatchBatchMatchesSequential(t *testing.T) {
	p := New(Options{Seed: 5, Parallelism: 4})
	logs := sampleLogs(300, 3)
	res, err := p.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.MatchBatch(logs)
	for i, line := range logs {
		if got := m.Match(line); got.NodeID != batch[i].NodeID {
			t.Fatalf("batch and sequential disagree at %d", i)
		}
	}
}

func TestTemplateAtRollup(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	model := res.Model
	for _, leafID := range model.Leaves() {
		leaf := model.Nodes[leafID]
		// Threshold 0: coarsest = the group root.
		n0, err := model.TemplateAt(leafID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n0.Parent != NoParent {
			t.Errorf("threshold 0 rollup stopped at non-root %d", n0.ID)
		}
		// Threshold just above the leaf's saturation: the leaf itself.
		n1, err := model.TemplateAt(leafID, leaf.Saturation+0.001)
		if err != nil {
			t.Fatal(err)
		}
		if n1.ID != leafID {
			t.Errorf("rollup above leaf saturation returned %d, want leaf %d", n1.ID, leafID)
		}
		// Monotonicity: higher threshold never yields a shallower node.
		prevDepth := -1
		for _, th := range []float64{0, 0.3, 0.6, 0.9, 1.0} {
			n, err := model.TemplateAt(leafID, th)
			if err != nil {
				t.Fatal(err)
			}
			if n.Depth < prevDepth {
				t.Errorf("rollup depth decreased as threshold rose")
			}
			prevDepth = n.Depth
		}
	}
}

func TestTemplateAtUnknownNode(t *testing.T) {
	m := NewModel()
	if _, err := m.TemplateAt(42, 0.5); err == nil {
		t.Error("TemplateAt accepted unknown node")
	}
}

func TestTemplatesAtThreshold(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	coarse := res.Model.TemplatesAtThreshold(0.05)
	fine := res.Model.TemplatesAtThreshold(0.99)
	if len(coarse) > len(fine) {
		t.Errorf("coarse view has more templates (%d) than fine view (%d)", len(coarse), len(fine))
	}
	for _, n := range fine {
		if n.Saturation < 0.99 && len(res.Model.Children(n.ID)) > 0 {
			t.Errorf("non-leaf below threshold returned: %+v", n)
		}
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Model.Len() || back.NextID != res.Model.NextID {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.Len(), back.NextID, res.Model.Len(), res.Model.NextID)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, n := range res.Model.Nodes {
		bn := back.Nodes[id]
		if bn == nil || bn.Text() != n.Text() || bn.Saturation != n.Saturation || bn.Parent != n.Parent {
			t.Fatalf("node %d corrupted in round trip", id)
		}
	}
	// Matching works identically on the restored model.
	m1, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.NewMatcher(&back)
	if err != nil {
		t.Fatal(err)
	}
	probe := "connected to 10.0.0.1:80 ok"
	if a, b := m1.Match(probe), m2.Match(probe); a.Template != b.Template {
		t.Errorf("restored model matches differently: %q vs %q", a.Template, b.Template)
	}
}

func TestModelUnmarshalCorruptData(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary([]byte("definitely not gob")); err == nil {
		t.Error("UnmarshalBinary accepted garbage")
	}
}

func TestModelSizeBytesReasonable(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	size, err := res.Model.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("non-positive model size")
	}
	// The Table-5 claim: model is far smaller than the raw logs.
	raw := 0
	for _, l := range sampleLogs(1000, 3) {
		raw += len(l)
	}
	if size > raw {
		t.Errorf("model (%d B) larger than raw logs (%d B)", size, raw)
	}
}

func TestTrainMergeKeepsOldTemplates(t *testing.T) {
	p := New(Options{Seed: 5})
	batch1 := []string{
		"connected to 10.0.0.1:80 ok",
		"connected to 10.9.3.7:443 ok",
		"connected to 172.16.0.4:22 ok",
	}
	res1, err := p.Train(batch1)
	if err != nil {
		t.Fatal(err)
	}
	batch2 := []string{
		"connected to 10.1.1.1:8080 ok",
		"connected to 10.1.1.2:8080 ok",
		"disk sda1 failed with code 5",
		"disk sdb9 failed with code 2",
	}
	res2, err := p.TrainMerge(res1.Model, batch2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res2.Model)
	if err != nil {
		t.Fatal(err)
	}
	// Both old and new structures match without temporary insertion.
	for _, line := range append(batch1, batch2...) {
		if r := m.Match(line); r.New {
			t.Errorf("merged model missed %q", line)
		}
	}
	// The "connected" structures merged rather than duplicated: count the
	// roots for that length.
	connTokens := p.PreprocessLine(batch1[0])
	roots := 0
	for _, rid := range res2.Model.Roots() {
		if len(res2.Model.Nodes[rid].Template) == len(connTokens) {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("connected-log roots = %d, want 1 after merge", roots)
	}
}

func TestTrainMergeDropsTemporaries(t *testing.T) {
	p := New(Options{Seed: 5})
	res1, err := p.Train([]string{
		"job 17 started on node n1",
		"job 93 started on node n4",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res1.Model)
	if err != nil {
		t.Fatal(err)
	}
	novel := "unexpected crash in module alpha seen"
	r := m.Match(novel)
	if !r.New {
		t.Fatal("expected temporary insertion")
	}
	res2, err := p.TrainMerge(res1.Model, []string{
		novel,
		"unexpected crash in module beta seen",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res2.Model.Nodes {
		if n.Temporary {
			t.Errorf("temporary node %d survived retraining", n.ID)
		}
	}
	m2, err := p.NewMatcher(res2.Model)
	if err != nil {
		t.Fatal(err)
	}
	if r := m2.Match(novel); r.New {
		t.Error("retrained model missed the previously-unseen log")
	}
}

func TestTrainMergeNilPrevious(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.TrainMerge(nil, []string{"a b c", "a b d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Len() == 0 {
		t.Error("TrainMerge(nil, …) produced empty model")
	}
}

func TestMergeModelsBadThreshold(t *testing.T) {
	if _, _, err := MergeModels(NewModel(), NewModel(), 0); err == nil {
		t.Error("MergeModels accepted threshold 0")
	}
	if _, _, err := MergeModels(NewModel(), NewModel(), 1.5); err == nil {
		t.Error("MergeModels accepted threshold > 1")
	}
}

func TestTemplateSimilarity(t *testing.T) {
	tests := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"a", "c"}, 0.5},
		{[]string{"a", Wildcard}, []string{"a", "c"}, 1},
		{[]string{Wildcard, Wildcard}, []string{"x", "y"}, 1},
		{[]string{"a"}, []string{"a", "b"}, 0},
		{nil, nil, 1},
	}
	for _, tt := range tests {
		if got := TemplateSimilarity(tt.a, tt.b); got != tt.want {
			t.Errorf("TemplateSimilarity(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAncestry(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, leafID := range res.Model.Leaves() {
		path, err := res.Model.Ancestry(leafID)
		if err != nil {
			t.Fatal(err)
		}
		if path[0].Parent != NoParent {
			t.Error("ancestry does not start at a root")
		}
		if path[len(path)-1].ID != leafID {
			t.Error("ancestry does not end at the leaf")
		}
		for i := 1; i < len(path); i++ {
			if path[i].Parent != path[i-1].ID {
				t.Error("ancestry chain broken")
			}
			if path[i].Saturation < path[i-1].Saturation {
				t.Error("saturation decreased down the ancestry")
			}
		}
	}
	if _, err := res.Model.Ancestry(99999); err == nil {
		t.Error("Ancestry accepted unknown node")
	}
}

func TestNaiveMatchAgreesWithTextMatchMostly(t *testing.T) {
	// §5.4.1: text-based matching produces almost identical grouping to
	// the clustering assignment. On clean synthetic data they should
	// agree exactly.
	p := New(Options{Seed: 5})
	logs := sampleLogs(400, 3)
	res, err := p.Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, line := range logs {
		r := m.Match(line)
		a, err := res.Model.TemplateAt(res.Assign[i], 0.99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Model.TemplateAt(r.NodeID, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if a.ID == b.ID || a.Text() == b.Text() {
			agree++
		}
	}
	// §5.4.1 reports "almost identical" group accuracy, not identical
	// assignments; 0.9 agreement of rolled-up groups is the bound the
	// ablation experiment (Fig. 8) relies on.
	if frac := float64(agree) / float64(len(logs)); frac < 0.90 {
		t.Errorf("naive and text matching agree on %.2f of logs, want >= 0.90", frac)
	}
}

func TestOrdinalEncodingVariant(t *testing.T) {
	logs := sampleLogs(300, 3)
	a, err := New(Options{Seed: 5}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Seed: 5, OrdinalEncoding: true}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	// Encodings are interchangeable for clustering: same template count.
	if a.Model.Len() != b.Model.Len() {
		t.Errorf("hash vs ordinal node counts differ: %d vs %d", a.Model.Len(), b.Model.Len())
	}
}

func TestNoDedupVariantSameTemplates(t *testing.T) {
	base := []string{
		"connected to 10.0.0.1:80 ok",
		"connected to 10.9.3.7:443 ok",
		"disk sda1 failed with code 5",
		"disk sdb2 failed with code 9",
	}
	var logs []string
	for i := 0; i < 30; i++ {
		logs = append(logs, base[i%len(base)])
	}
	a, err := New(Options{Seed: 5}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Seed: 5, NoDedup: true}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	// Deduplication is an efficiency technique: the leaf template set
	// must be identical with and without it. (Rollup saturations differ
	// because duplicate counts inflate n in the variability scale.)
	leafSet := func(res *TrainResult) map[string]bool {
		s := map[string]bool{}
		for _, id := range res.Model.Leaves() {
			s[res.Model.Nodes[id].Text()] = true
		}
		return s
	}
	la, lb := leafSet(a), leafSet(b)
	if len(la) != len(lb) {
		t.Fatalf("leaf template sets differ in size: %d vs %d", len(la), len(lb))
	}
	for k := range la {
		if !lb[k] {
			t.Errorf("leaf template %q missing without dedup", k)
		}
	}
}

func TestPrefixGroupingSeparates(t *testing.T) {
	logs := []string{
		"alpha start 1", "alpha start 2",
		"beta start 1", "beta start 2",
	}
	res, err := New(Options{Seed: 5, PrefixLen: 1}).Train(logs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] == res.Assign[2] {
		t.Error("prefix grouping did not separate alpha/beta")
	}
	if len(res.Model.Roots()) < 2 {
		t.Errorf("roots = %d, want >= 2 with PrefixLen 1", len(res.Model.Roots()))
	}
}

func TestPreprocessLineAppliesVarsAndTokenize(t *testing.T) {
	p := New(Options{Seed: 5})
	got := p.PreprocessLine("conn from 10.0.0.1:80 at 2025-01-02 03:04:05")
	want := []string{"conn", "from", Wildcard, "at", Wildcard}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMatcherEmptyLine(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train([]string{"a b", "a c"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match("")
	if r.NodeID == 0 {
		t.Error("empty line not handled")
	}
	if !r.New {
		t.Error("empty line should insert a temporary empty template")
	}
	if r2 := m.Match("   "); r2.NodeID != r.NodeID {
		t.Error("second empty line did not reuse the empty template")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Parallelism != defaultParallelism || o.MaxDepth != defaultMaxDepth ||
		o.MaxIters != defaultMaxIters || o.MergeThreshold != defaultMergeThreshold {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Tokenizer == nil || o.Replacer == nil {
		t.Error("nil tokenizer or replacer after defaulting")
	}
	// Explicit values survive.
	o2 := Options{Parallelism: 2, MaxDepth: 5}.withDefaults()
	if o2.Parallelism != 2 || o2.MaxDepth != 5 {
		t.Error("explicit options overridden")
	}
}

func TestTemplateTextHasNoEmptyTokens(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Model.Nodes {
		for _, tok := range n.Template {
			if tok == "" {
				t.Fatalf("empty token in template of node %d", n.ID)
			}
		}
		if strings.Contains(n.Text(), "  ") {
			t.Fatalf("double space in template text %q", n.Text())
		}
	}
}

func TestMatchBatchDeduplicates(t *testing.T) {
	// Batch matching must produce identical results for duplicate lines
	// and agree with per-line matching (it processes distinct lines
	// once and fans out).
	p := New(Options{Seed: 5})
	base := sampleLogs(50, 3)
	var lines []string
	for i := 0; i < 400; i++ {
		lines = append(lines, base[i%len(base)])
	}
	res, err := p.Train(base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.MatchBatch(lines)
	for i, line := range lines {
		if one := m.Match(line); one.NodeID != batch[i].NodeID {
			t.Fatalf("batch disagrees with single match at %d", i)
		}
	}
	for i := range base {
		if batch[i].NodeID != batch[i+len(base)].NodeID {
			t.Fatalf("duplicate lines %d and %d got different nodes", i, i+len(base))
		}
	}
}

func TestTrainRawDedupPreservesAssignments(t *testing.T) {
	// The raw-line dedup fast path must leave per-line assignments
	// identical to what the NoDedup pipeline computes at rollup level.
	base := sampleLogs(30, 9)
	var lines []string
	for i := 0; i < 150; i++ {
		lines = append(lines, base[i%len(base)])
	}
	a, err := New(Options{Seed: 4}).Train(lines)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate lines always share an assignment.
	for i := range base {
		if a.Assign[i] != a.Assign[i+len(base)] {
			t.Fatalf("duplicates %d/%d assigned differently", i, i+len(base))
		}
	}
	// Counts at the leaves reflect raw multiplicity, not unique count.
	total := 0
	for _, id := range a.Model.Leaves() {
		total += a.Model.Nodes[id].Weight
	}
	if total != len(lines) {
		t.Errorf("leaf weights sum to %d, want %d raw lines", total, len(lines))
	}
}

// TestTemporaryIDBandAndOverlayInheritance: a temporary minted while a
// training cycle runs keeps an ID the cycle cannot allocate, and the
// swapped-in matcher inherits it.
func TestTemporaryIDBandAndOverlayInheritance(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	// A training cycle snapshots the model, then — while it "runs" — a
	// concurrent ingest inserts a temporary the snapshot never saw.
	prev := m.SnapshotModel()
	late := m.Match("surprise subsystem failure during retraining window")
	if !late.New {
		t.Fatal("expected a temporary for the mid-training log")
	}
	res2, err := p.TrainMerge(prev, sampleLogs(80, 9))
	if err != nil {
		t.Fatal(err)
	}
	// ID band: IDs minted by the training cycle must not collide with
	// the temporary minted concurrently.
	if n, ok := res2.Model.Nodes[late.NodeID]; ok {
		t.Fatalf("trained model reused concurrent temporary ID %d: %+v", late.NodeID, n)
	}
	// Overlay inheritance: the swapped-in matcher still resolves the
	// mid-training temporary by ID and by content.
	m2, err := p.NewMatcherFrom(res2.Model, m)
	if err != nil {
		t.Fatal(err)
	}
	n := m2.NodeByID(late.NodeID)
	if n == nil || !n.Temporary {
		t.Fatalf("mid-training temporary lost across swap: %v", n)
	}
	if got := m2.Match("surprise subsystem failure during retraining window"); got.NodeID != late.NodeID || got.New {
		t.Errorf("re-match of mid-training log: %+v, want reuse of %d", got, late.NodeID)
	}
	// Temporaries that WERE in the snapshot are absorbed (aliased) by
	// the merge and pruned from the inherited overlay.
	preSnap := m.SnapshotModel() // fresh snapshot now including `late`
	res3, err := p.TrainMerge(preSnap, []string{"surprise subsystem failure during retraining window"})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := p.NewMatcherFrom(res3.Model, m2)
	if err != nil {
		t.Fatal(err)
	}
	if m3.TemporaryCount() != 0 {
		t.Errorf("absorbed temporaries not pruned: %d left", m3.TemporaryCount())
	}
	if _, err := m3.TemplateAt(late.NodeID, 0.7); err != nil {
		t.Errorf("absorbed temporary ID stopped resolving: %v", err)
	}
}

// TestTemporaryIDIsContentDerived: a temporary's ID is in the top band
// and depends only on its tokens, so a fresh matcher over the same model
// (a restart) derives the same ID for the same template and a different
// one for a different template; trained IDs stay below the band.
func TestTemporaryIDIsContentDerived(t *testing.T) {
	p := New(Options{Seed: 5})
	res, err := p.Train(sampleLogs(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.Model.Nodes {
		if id&tempIDBand != 0 {
			t.Fatalf("trained ID %#x is in the temporary band", id)
		}
	}
	const quota = "disk quota exceeded on volume alpha"
	const logout = "user bob logged out of session"
	first, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	a := first.Match(quota)
	second, err := p.NewMatcher(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	b := second.Match(logout)
	c := second.Match(quota)
	if !a.New || !b.New || !c.New {
		t.Fatalf("expected three temporaries: %+v %+v %+v", a, b, c)
	}
	if a.NodeID&tempIDBand == 0 || b.NodeID&tempIDBand == 0 {
		t.Fatalf("temporary IDs %#x, %#x lack the band bit", a.NodeID, b.NodeID)
	}
	if b.NodeID == a.NodeID {
		t.Fatalf("a different template took the lost temporary's ID %#x", a.NodeID)
	}
	if c.NodeID != a.NodeID {
		t.Fatalf("same template re-derived %#x after a restart, want %#x", c.NodeID, a.NodeID)
	}
}

// TestTemporaryIDForcedCollision: when the derived ID is already taken
// by another template, the ID moves to the next one in the band.
func TestTemporaryIDForcedCollision(t *testing.T) {
	tokens := []string{"disk", "quota", "exceeded", "on", "volume", "alpha"}
	none := func(uint64) bool { return false }
	first := temporaryID(tokens, none)
	if first&tempIDBand == 0 {
		t.Fatalf("ID %#x lacks the band bit", first)
	}
	taken := map[uint64]bool{first: true}
	got := temporaryID(tokens, func(id uint64) bool { return taken[id] })
	want := tempIDBand | (first + 1)
	if got != want {
		t.Fatalf("with the first candidate taken got %#x, want %#x", got, want)
	}
	taken[want] = true
	if got := temporaryID(tokens, func(id uint64) bool { return taken[id] }); got != tempIDBand|(want+1) {
		t.Fatalf("with two candidates taken got %#x, want %#x", got, tempIDBand|(want+1))
	}
	// Length prefixes keep token boundaries: ["ab","c"] and ["a","bc"]
	// join to the same bytes but are different templates.
	if temporaryID([]string{"ab", "c"}, none) == temporaryID([]string{"a", "bc"}, none) {
		t.Fatal("token boundaries lost in the ID encoding")
	}
}

// TestPreprocessLineAppendMatchesPreprocessLine: the buffer-reusing
// preprocessing must produce the same tokens as the allocating one, and
// reuse across lines must not corrupt earlier results once copied.
func TestPreprocessLineAppendMatchesPreprocessLine(t *testing.T) {
	p := New(Options{})
	lines := []string{
		"Receiving block blk_123 src: /10.0.0.1:50010",
		"no variables at all",
		"ts 2025-04-12T08:31:02Z worker 9 done",
		"",
	}
	var buf []string
	for _, line := range lines {
		want := p.PreprocessLine(line)
		buf = p.PreprocessLineAppend(buf[:0], line)
		if len(buf) != len(want) {
			t.Fatalf("PreprocessLineAppend(%q) = %v, want %v", line, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("PreprocessLineAppend(%q)[%d] = %q, want %q", line, i, buf[i], want[i])
			}
		}
	}
}

// TestPreprocessLineAppendLeavesPrefixAlone: only the appended tail may
// be canonicalized; pre-existing dst elements belong to the caller, even
// ones that happen to contain the variable sentinel byte.
func TestPreprocessLineAppendLeavesPrefixAlone(t *testing.T) {
	p := New(Options{})
	sentinel := "prefix-\x01-token"
	dst := []string{sentinel}
	out := p.PreprocessLineAppend(dst, "worker 10.0.0.1 connected")
	if out[0] != sentinel {
		t.Fatalf("caller's prefix mutated: %q", out[0])
	}
	want := p.PreprocessLine("worker 10.0.0.1 connected")
	if len(out) != 1+len(want) {
		t.Fatalf("out = %v, want prefix + %v", out, want)
	}
	for i, tok := range want {
		if out[1+i] != tok {
			t.Fatalf("tail[%d] = %q, want %q", i, out[1+i], tok)
		}
	}
}
