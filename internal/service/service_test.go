package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/logstore"
	"bytebrain/internal/obs"
)

func testConfig() Config {
	now := time.Unix(1700000000, 0)
	return Config{
		Parser:        core.Options{Seed: 1},
		TrainVolume:   100,
		TrainInterval: time.Hour,
		Now:           func() time.Time { return now },
	}
}

// waitTrainings polls until the topic's background trainer has completed
// at least want cycles (training is asynchronous — Ingest only triggers).
func waitTrainings(t *testing.T, s *Service, topic string, want int) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := s.TopicStats(topic)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Trainings >= want && !stats.Training {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("background training did not reach %d cycles: %+v", want, stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func genLines(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		switch r.Intn(3) {
		case 0:
			out[i] = fmt.Sprintf("request from 10.0.%d.%d served in %dms", r.Intn(4), r.Intn(200), r.Intn(500))
		case 1:
			out[i] = fmt.Sprintf("cache miss for key user:%d backend shard-%d", r.Intn(100000), r.Intn(16))
		default:
			out[i] = fmt.Sprintf("gc cycle %d finished freed %d objects", r.Intn(10000), r.Intn(100000))
		}
	}
	return out
}

func TestCreateTopicValidation(t *testing.T) {
	s := New(testConfig())
	if err := s.CreateTopic(""); err == nil {
		t.Error("empty topic name accepted")
	}
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTopic("app"); err == nil {
		t.Error("duplicate topic accepted")
	}
	if got := s.Topics(); len(got) != 1 || got[0] != "app" {
		t.Errorf("Topics = %v", got)
	}
}

func TestIngestUnknownTopic(t *testing.T) {
	s := New(testConfig())
	if err := s.Ingest("nope", []string{"x"}); err == nil {
		t.Error("ingest into unknown topic accepted")
	}
}

func TestVolumeTriggeredTraining(t *testing.T) {
	s := New(testConfig()) // TrainVolume=100
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(50, 1)); err != nil {
		t.Fatal(err)
	}
	stats, _ := s.TopicStats("app")
	if stats.Trainings != 0 {
		t.Fatalf("training fired below volume threshold: %+v", stats)
	}
	if err := s.Ingest("app", genLines(60, 2)); err != nil {
		t.Fatal(err)
	}
	stats = waitTrainings(t, s, "app", 1)
	if stats.Trainings != 1 {
		t.Fatalf("training did not fire at volume threshold: %+v", stats)
	}
	// Without DataDir the topic keeps only its live model: no snapshots.
	if stats.Templates == 0 || stats.ModelBytes == 0 || stats.Snapshots != 0 {
		t.Errorf("post-training stats incomplete: %+v", stats)
	}
	if stats.SinceTrain != 0 || stats.LastTrainError != "" {
		t.Errorf("trainer state not reset after cycle: %+v", stats)
	}
}

func TestTimeTriggeredTraining(t *testing.T) {
	// The clock is read concurrently by the background trainer, so the
	// fake time lives behind a mutex.
	var clockMu sync.Mutex
	now := time.Unix(1700000000, 0)
	cfg := testConfig()
	cfg.TrainVolume = 1 << 30
	cfg.TrainInterval = 5 * time.Minute
	cfg.Now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	s := New(cfg)
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(10, 1)); err != nil {
		t.Fatal(err)
	}
	stats, _ := s.TopicStats("app")
	if stats.Trainings != 0 {
		t.Fatal("trained too early")
	}
	clockMu.Lock()
	now = now.Add(6 * time.Minute)
	clockMu.Unlock()
	if err := s.Ingest("app", genLines(10, 2)); err != nil {
		t.Fatal(err)
	}
	if stats := waitTrainings(t, s, "app", 1); stats.Trainings != 1 {
		t.Fatalf("interval training did not fire: %+v", stats)
	}
}

func TestQueryGroupsAndThreshold(t *testing.T) {
	s := New(testConfig())
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	lines := genLines(300, 3)
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	// Re-ingest so records carry template IDs from the trained model.
	if err := s.Ingest("app", genLines(200, 4)); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no query rows")
	}
	total := 0
	for _, r := range rows {
		total += r.Count
		if r.Count <= 0 {
			t.Errorf("row with nonpositive count: %+v", r)
		}
		if len(r.SampleOffsets) == 0 {
			t.Errorf("row without samples: %+v", r)
		}
	}
	store, _ := s.Store("app")
	if total != store.Len() {
		t.Errorf("query covered %d of %d records", total, store.Len())
	}
	// Coarser threshold: no more groups than the fine view.
	coarse, err := s.Query("app", 0.1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) > len(rows) {
		t.Errorf("coarse query has more groups (%d) than fine (%d)", len(coarse), len(rows))
	}
}

func TestQueryBeforeTraining(t *testing.T) {
	s := New(testConfig())
	_ = s.CreateTopic("app")
	if _, err := s.Query("app", 0.5, TimeRange{}); err == nil {
		t.Error("query before first training should error")
	}
}

// TestQueryLabelsUnresolvedTemplateID: a stored nonzero template ID the
// model cannot resolve keeps its ID and is not passed off as a record
// ingested before the first training.
func TestQueryLabelsUnresolvedTemplateID(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	store, err := s.Store("app")
	if err != nil {
		t.Fatal(err)
	}
	const unknown = uint64(1) << 60
	if _, err := store.AppendBatch(time.Unix(1700000000, 0), []logstore.BatchRecord{{Raw: "from another model", TemplateID: unknown}}); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range rows {
		if r.TemplateID != unknown {
			continue
		}
		found = true
		if r.Count != 1 || r.Template != "(unresolved template id)" {
			t.Fatalf("unresolved template row = %+v", r)
		}
	}
	if !found {
		t.Fatalf("no row keeps template ID %d: %+v", unknown, rows)
	}
}

func TestModelMergesAcrossCycles(t *testing.T) {
	s := New(testConfig())
	_ = s.CreateTopic("app")
	_ = s.Ingest("app", genLines(80, 1))
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	m1, _ := s.Model("app")
	// New structure arrives: unmatched → temporary → retrain merges.
	novel := []string{
		"disk pressure warning on volume vol-1 usage 91%",
		"disk pressure warning on volume vol-7 usage 96%",
		"disk pressure warning on volume vol-3 usage 99%",
	}
	_ = s.Ingest("app", novel)
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	m2, _ := s.Model("app")
	if m2.Len() <= 0 || m1 == m2 {
		t.Fatal("no new model after retraining")
	}
	for _, n := range m2.Nodes {
		if n.Temporary {
			t.Error("temporary node survived retraining")
		}
	}
	// Old templates kept working.
	rows, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	foundDisk := false
	for _, r := range rows {
		if strings.Contains(r.Template, "disk pressure warning") {
			foundDisk = true
		}
	}
	if !foundDisk {
		t.Error("retrained model lost the novel structure")
	}
}

func TestReservoirSamplingBounded(t *testing.T) {
	cfg := testConfig()
	cfg.SampleCap = 100
	cfg.TrainVolume = 1 << 30
	s := New(cfg)
	_ = s.CreateTopic("app")
	_ = s.Ingest("app", genLines(5000, 5))
	st, err := s.topic("app")
	if err != nil {
		t.Fatal(err)
	}
	st.resMu.Lock()
	bufLen := len(st.buffer)
	st.resMu.Unlock()
	if bufLen != 100 {
		// The reservoir honors SampleCap exactly: append up to the cap,
		// uniform replacement beyond it.
		t.Errorf("training buffer holds %d lines, want SampleCap=100", bufLen)
	}
	stats, _ := s.TopicStats("app")
	if stats.ReservoirLines != bufLen {
		t.Errorf("stats.ReservoirLines = %d, want %d", stats.ReservoirLines, bufLen)
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	cfg := testConfig()
	cfg.TrainVolume = 200
	s := New(cfg)
	_ = s.CreateTopic("app")
	_ = s.Ingest("app", genLines(250, 1)) // trigger first training
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_ = s.Ingest("app", genLines(50, int64(g*100+i)))
				_, _ = s.Query("app", 0.7, TimeRange{})
			}
		}(g)
	}
	wg.Wait()
	stats, _ := s.TopicStats("app")
	if stats.Records != 250+4*10*50 {
		t.Errorf("records = %d, want %d", stats.Records, 250+4*10*50)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(testConfig())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	// Health.
	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Create topic.
	req, _ := httpNewRequest("PUT", srv.URL+"/topics/web", "")
	resp, err = client.Do(req)
	if err != nil || resp.StatusCode != 201 {
		t.Fatalf("create topic: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Duplicate topic → conflict.
	req, _ = httpNewRequest("PUT", srv.URL+"/topics/web", "")
	resp, _ = client.Do(req)
	if resp.StatusCode != 409 {
		t.Fatalf("duplicate create = %v", resp.Status)
	}
	resp.Body.Close()

	// Ingest logs.
	body := strings.Join(genLines(150, 9), "\n")
	resp, err = client.Post(srv.URL+"/topics/web/logs", "text/plain", strings.NewReader(body))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("ingest: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Force training.
	resp, err = client.Post(srv.URL+"/topics/web/train", "", nil)
	if err != nil || resp.StatusCode != 204 {
		t.Fatalf("train: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Query.
	resp, err = client.Get(srv.URL + "/topics/web/query?threshold=0.7")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("query: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Bad threshold.
	resp, _ = client.Get(srv.URL + "/topics/web/query?threshold=nope")
	if resp.StatusCode != 400 {
		t.Fatalf("bad threshold = %v", resp.Status)
	}
	resp.Body.Close()

	// Unknown topic.
	resp, _ = client.Get(srv.URL + "/topics/ghost/stats")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown topic stats = %v", resp.Status)
	}
	resp.Body.Close()

	// Stats.
	resp, err = client.Get(srv.URL + "/topics/web/stats")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("stats: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Topic list.
	resp, err = client.Get(srv.URL + "/topics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("topics: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

// httpNewRequest is a tiny helper around http.NewRequest for string
// bodies.
func httpNewRequest(method, url, body string) (*http.Request, error) {
	if body == "" {
		return http.NewRequest(method, url, nil)
	}
	return http.NewRequest(method, url, strings.NewReader(body))
}

func TestQueryMergedGroupsVariableLengthLists(t *testing.T) {
	s := New(testConfig())
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	// Variable-length list output from one statement: users=<1..3 items>.
	var lines []string
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0:
			lines = append(lines, fmt.Sprintf("users=u%d", i))
		case 1:
			lines = append(lines, fmt.Sprintf("users=u%d u%d", i, i+1))
		default:
			lines = append(lines, fmt.Sprintf("users=u%d u%d u%d", i, i+1, i+2))
		}
	}
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	perNode, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := s.QueryMerged("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) >= len(perNode) {
		t.Fatalf("merged view (%d rows) not smaller than per-node view (%d)", len(merged), len(perNode))
	}
	// Counts are conserved.
	sum := func(rows []TemplateRow) int {
		n := 0
		for _, r := range rows {
			n += r.Count
		}
		return n
	}
	if sum(merged) != sum(perNode) {
		t.Errorf("merged counts %d != per-node counts %d", sum(merged), sum(perNode))
	}
	// The three length variants present one "users <*>" row.
	usersRows := 0
	for _, r := range merged {
		if strings.HasPrefix(r.Template, "users") {
			usersRows++
		}
	}
	if usersRows != 1 {
		t.Errorf("users rows in merged view = %d, want 1", usersRows)
	}
}

func TestHTTPQueryMergedParam(t *testing.T) {
	s := New(testConfig())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	req, _ := httpNewRequest("PUT", srv.URL+"/topics/m", "")
	resp, err := client.Do(req)
	if err != nil || resp.StatusCode != 201 {
		t.Fatalf("create: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, fmt.Sprintf("items=i%d j%d", i, i+1))
	}
	resp, err = client.Post(srv.URL+"/topics/m/logs", "text/plain", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("ingest: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	resp, err = client.Post(srv.URL+"/topics/m/train", "", nil)
	if err != nil || resp.StatusCode != 204 {
		t.Fatalf("train: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	for _, q := range []string{"", "&merged=1"} {
		resp, err = client.Get(srv.URL + "/topics/m/query?threshold=0.7" + q)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("query %q: %v %v", q, resp.Status, err)
		}
		var rows []TemplateRow
		if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if len(rows) == 0 {
			t.Fatalf("query %q returned no rows", q)
		}
	}
}

// TestLineCacheRepeatIngestStaysCorrect drives the snapshot line cache:
// re-ingesting identical lines must produce exactly the same query
// counts as matching every line from scratch, across batches and across
// a model swap (which discards the cache with its snapshot).
func TestLineCacheRepeatIngestStaysCorrect(t *testing.T) {
	cfg := testConfig()
	cfg.TrainVolume = 1 << 30
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	lines := genLines(200, 3)
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	// Repeat the same batch: every line after the first pass should be a
	// cache hit, and counts must stay exact multiples.
	const repeats = 5
	for i := 0; i < repeats; i++ {
		if err := s.Ingest("app", lines); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Count
	}
	if want := len(lines) * (repeats + 1); total != want {
		t.Fatalf("query counts sum to %d, want %d", total, want)
	}
	st, err := s.topic("app")
	if err != nil {
		t.Fatal(err)
	}
	snap := st.snap.Load()
	if snap == nil || snap.cacheLen() == 0 {
		t.Fatal("line cache never filled on repeat ingest")
	}
	// A forced training cycle swaps the snapshot; the fresh cache must
	// keep resolving the same lines to valid templates.
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	if snap2 := st.snap.Load(); snap2 == snap {
		t.Fatal("training did not swap the snapshot")
	} else if snap2.cacheLen() != 0 {
		t.Fatal("new snapshot inherited a stale line cache")
	}
	if err := s.Ingest("app", lines); err != nil {
		t.Fatal(err)
	}
	rows, err = s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	unparsed := 0
	for _, r := range rows {
		total += r.Count
		if r.Template == "(unparsed: ingested before first training)" {
			unparsed += r.Count
		}
	}
	if want := len(lines) * (repeats + 2); total != want {
		t.Fatalf("post-swap counts sum to %d, want %d", total, want)
	}
	if unparsed != len(lines) {
		// Only the very first pre-training batch lacks template IDs.
		t.Fatalf("unparsed count %d, want %d", unparsed, len(lines))
	}
}

// TestLineCacheCapBounds: hitting the cap evicts the whole generation so
// hot lines re-memoize instead of the cache freezing on its first fill.
func TestLineCacheCapBounds(t *testing.T) {
	reg := obs.NewRegistry()
	sn := &modelSnapshot{
		cacheCap:  64,
		evictions: reg.Counter("evictions_total", "t").With(),
	}
	for i := 0; i < 64; i++ {
		sn.cacheID(fmt.Sprintf("line %d", i), uint64(i))
	}
	if n := sn.cacheLen(); n != 64 {
		t.Fatalf("cache holds %d entries, want 64 (the cap)", n)
	}
	// The insert that lands on a full cache swaps in a fresh generation.
	sn.cacheID("line 64", 64)
	if n := sn.cacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after eviction, want 0", n)
	}
	if got := sn.evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := sn.cachedID("line 1"); ok {
		t.Fatal("pre-eviction entry survived the generation swap")
	}
	// The fresh generation memoizes normally.
	sn.cacheID("line 64", 64)
	if id, ok := sn.cachedID("line 64"); !ok || id != 64 {
		t.Fatalf("cachedID(line 64) = %d, %v; want 64, true", id, ok)
	}
}
