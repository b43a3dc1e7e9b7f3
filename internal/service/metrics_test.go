package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics from the handler and returns the body plus a
// name{labels} → value map of every simple sample line.
func scrape(t *testing.T, h http.Handler) (string, map[string]float64) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body := rec.Body.String()
	vals := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
		vals[key] = f
	}
	return body, vals
}

// TestMetricsEndToEnd drives ingest, training, and every query kind
// through the HTTP API while a scraper runs concurrently, then checks the
// exposition covers all metric families with exact, consistent values.
func TestMetricsEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.SegmentBytes = 4096
	cfg.WALFsyncEveryBatches = 1
	cfg.TrainVolume = 1 << 30 // explicit Train calls only: keeps counts exact
	s := New(cfg)
	defer s.Close()
	h := s.Handler()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}

	lines := genLines(300, 4)
	// Ingest and query in parallel with a scraper: -race makes this a
	// correctness test for the lock-free instruments, not just coverage.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape(t, h)
			}
		}
	}()
	if err := s.Ingest("app", lines); err != nil { // pre-training: no cache yet
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", lines); err != nil { // all misses, fills the cache
		t.Fatal(err)
	}
	if err := s.Ingest("app", lines); err != nil { // all hits
		t.Fatal(err)
	}
	if _, err := s.Query("app", 0.7, TimeRange{}); err != nil {
		t.Fatal(err)
	}
	now := cfg.Now()
	if _, err := s.Query("app", 0.7, TimeRange{From: now.Add(-time.Hour), To: now.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search("app", "alpha", TimeRange{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ByTemplate("app", TimeRange{}, 1); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	body, vals := scrape(t, h)

	// Every family the issue calls for must be present.
	for _, fam := range []string{
		"bb_ingest_lines_total", "bb_ingest_batches_total",
		"bb_ingest_match_seconds", "bb_ingest_append_seconds",
		"bb_line_cache_hits_total", "bb_line_cache_misses_total", "bb_line_cache_evictions_total",
		"bb_query_seconds", "bb_queries_total", "bb_slow_queries_total",
		"bb_train_cycle_seconds", "bb_train_swaps_total", "bb_train_errors_total", "bb_train_last_error",
		"bb_wal_append_records_total", "bb_wal_append_bytes_total",
		"bb_wal_fsyncs_total", "bb_wal_fsync_seconds",
		"bb_store_batch_records", "bb_store_seals_total",
		"bb_segment_blocks_read_total", "bb_segment_blocks_pruned_total", "bb_segment_read_errors_total",
		"bb_topic_records", "bb_topic_templates", "bb_topic_segments",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	if got := vals[`bb_ingest_lines_total{topic="app"}`]; got != 900 {
		t.Errorf("ingest lines = %v, want 900", got)
	}
	// Cache accounting covers only post-training ingests (the cache lives
	// on the model snapshot): pass 2 misses, pass 3 hits.
	hits := vals[`bb_line_cache_hits_total{topic="app"}`]
	misses := vals[`bb_line_cache_misses_total{topic="app"}`]
	if hits+misses != 600 {
		t.Errorf("cache hits+misses = %v, want 600", hits+misses)
	}
	if hits == 0 {
		t.Error("repeat ingest produced no cache hits")
	}
	for _, kind := range []string{"grouped", "time-range", "search", "template"} {
		if got := vals[fmt.Sprintf(`bb_queries_total{topic="app",kind=%q}`, kind)]; got != 1 {
			t.Errorf("queries{kind=%s} = %v, want 1", kind, got)
		}
		if got := vals[fmt.Sprintf(`bb_query_seconds_count{topic="app",kind=%q}`, kind)]; got != 1 {
			t.Errorf("query_seconds_count{kind=%s} = %v, want 1", kind, got)
		}
	}
	if got := vals[`bb_train_swaps_total{topic="app"}`]; got < 1 {
		t.Errorf("train swaps = %v, want >= 1", got)
	}
	if got := vals[`bb_train_last_error{topic="app"}`]; got != 0 {
		t.Errorf("train_last_error = %v, want 0", got)
	}
	if got := vals[`bb_wal_append_records_total{topic="app"}`]; got != 900 {
		t.Errorf("wal records = %v, want 900", got)
	}
	if vals[`bb_wal_fsyncs_total{topic="app"}`] == 0 {
		t.Error("fsync-every-1 recorded no fsyncs")
	}
	if got := vals[`bb_topic_records{topic="app"}`]; got != 900 {
		t.Errorf("topic records gauge = %v, want 900", got)
	}

	// Histogram self-consistency: every _count equals its +Inf bucket, and
	// the ingest histograms saw one observation per Ingest call.
	matchCount := vals[`bb_ingest_match_seconds_count{topic="app"}`]
	if matchCount != 3 {
		t.Errorf("match histogram count = %v, want 3", matchCount)
	}
	if inf := vals[`bb_ingest_match_seconds_bucket{topic="app",le="+Inf"}`]; inf != matchCount {
		t.Errorf("+Inf bucket %v != count %v", inf, matchCount)
	}
	if vals[`bb_ingest_match_seconds_sum{topic="app"}`] <= 0 {
		t.Error("match histogram sum not positive")
	}

	// A second scrape after more work: counters must be monotone.
	if err := s.Ingest("app", lines[:100]); err != nil {
		t.Fatal(err)
	}
	_, after := scrape(t, h)
	for key, v := range vals {
		if !strings.Contains(key, "_total") && !strings.Contains(key, "_count") && !strings.Contains(key, "_bucket") {
			continue
		}
		if after[key] < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, after[key])
		}
	}
	if got := after[`bb_ingest_lines_total{topic="app"}`]; got != 1000 {
		t.Errorf("ingest lines after extra batch = %v, want 1000", got)
	}
}

// TestSlowQueryLog checks the threshold gate and the structured line
// format of the slow-query log.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	cfg := testConfig()
	cfg.SlowQueryThreshold = time.Nanosecond // every query is slow
	cfg.SlowQueryLogf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(50, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("app", 0.7, TimeRange{}); err != nil {
		t.Fatal(err)
	}
	now := cfg.Now()
	if _, err := s.Query("app", 0, TimeRange{From: now.Add(-time.Minute)}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 2 {
		t.Fatalf("slow-query lines = %d, want 2: %q", len(logged), logged)
	}
	want := regexp.MustCompile(`^slow-query topic=app kind=grouped from=- to=- duration=\S+ results=\d+ threshold=1ns$`)
	if !want.MatchString(logged[0]) {
		t.Errorf("line %q does not match %v", logged[0], want)
	}
	if !strings.Contains(logged[1], "kind=time-range") || strings.Contains(logged[1], "from=-") {
		t.Errorf("bounded query line %q missing kind/from", logged[1])
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlowQueries != 2 {
		t.Errorf("stats.SlowQueries = %d, want 2", stats.SlowQueries)
	}
	if stats.Queries != 2 {
		t.Errorf("stats.Queries = %d, want 2", stats.Queries)
	}

	// Above-threshold gate: with a huge threshold nothing new is logged.
	s2 := New(testConfig()) // zero threshold: disabled entirely
	defer s2.Close()
	if err := s2.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Ingest("app", genLines(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Train("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Query("app", 0.7, TimeRange{}); err != nil {
		t.Fatal(err)
	}
	st2, err := s2.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if st2.SlowQueries != 0 {
		t.Errorf("disabled threshold still counted %d slow queries", st2.SlowQueries)
	}
}

// TestLineCacheEvictionEndToEnd drives a topic past a tiny line-cache cap
// and checks the eviction counter and /stats visibility.
func TestLineCacheEvictionEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.LineCacheCap = 32
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(64, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	// 200 distinct lines against a cap of 32 forces generation evictions.
	var distinct []string
	for i := 0; i < 200; i++ {
		distinct = append(distinct, fmt.Sprintf("evict probe %d from host-%d", i, i))
	}
	if err := s.Ingest("app", distinct); err != nil {
		t.Fatal(err)
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.LineCacheEvictions == 0 {
		t.Fatal("no evictions recorded past the cap")
	}
	if stats.LineCacheEntries > 32 {
		t.Fatalf("cache holds %d entries, cap is 32", stats.LineCacheEntries)
	}
	if stats.LineCacheMisses == 0 {
		t.Fatal("misses not recorded")
	}
	// The data survived eviction — the cache is only a memoization layer.
	rows, err := s.Query("app", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Count
	}
	if total != 264 {
		t.Fatalf("query counts sum to %d, want 264", total)
	}
}

// TestHTTPSearchAndTemplates exercises the new query routes end to end.
func TestHTTPSearchAndTemplates(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	h := s.Handler()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(40, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/topics/app/search?token=alpha"); code != http.StatusOK || !strings.Contains(body, "count") {
		t.Fatalf("search: %d %q", code, body)
	}
	if code, _ := get("/topics/app/search"); code != http.StatusBadRequest {
		t.Fatalf("search without token: %d, want 400", code)
	}
	if code, body := get("/topics/app/templates?id=1&id=2"); code != http.StatusOK || !strings.Contains(body, "count") {
		t.Fatalf("templates: %d %q", code, body)
	}
	if code, _ := get("/topics/app/templates?id=x"); code != http.StatusBadRequest {
		t.Fatalf("templates bad id: %d, want 400", code)
	}
	if code, _ := get("/topics/app/templates"); code != http.StatusBadRequest {
		t.Fatalf("templates no id: %d, want 400", code)
	}
	if code, _ := get("/topics/nope/search?token=x"); code != http.StatusNotFound {
		t.Fatalf("search unknown topic: %d, want 404", code)
	}
}
