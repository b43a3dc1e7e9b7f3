package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newHTTPFixture starts a handler with one existing, trained topic named
// "app".
func newHTTPFixture(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(testConfig())
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { s.Close() })
	return srv
}

func do(t *testing.T, srv *httptest.Server, method, path, body string) *http.Response {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestHTTPMethodNotAllowed hits every route with wrong methods.
func TestHTTPMethodNotAllowed(t *testing.T) {
	srv := newHTTPFixture(t)
	cases := []struct {
		method, path string
	}{
		{"POST", "/topics"},
		{"PUT", "/topics"},
		{"DELETE", "/topics"},
		{"GET", "/topics/app/logs"},
		{"PUT", "/topics/app/logs"},
		{"GET", "/topics/app/train"},
		{"PUT", "/topics/app/train"},
		{"GET", "/topics/app/compact"},
		{"POST", "/topics/app/query"},
		{"DELETE", "/topics/app/query"},
		{"POST", "/topics/app/stats"},
		{"DELETE", "/topics/app"}, // no DELETE on the topic itself
		{"GET", "/topics/app"},    // no plain GET either
	}
	for _, c := range cases {
		resp := do(t, srv, c.method, c.path, "")
		// The mux reports 405 for /topics and 404 for unmatched
		// method+action pairs under /topics/{name}/; both must refuse.
		if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 405/404", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestHTTPBadThreshold covers every malformed threshold query value.
func TestHTTPBadThreshold(t *testing.T) {
	srv := newHTTPFixture(t)
	for _, v := range []string{"nope", "-0.1", "1.5", "NaN", "Inf", "1e309", "0x1"} {
		resp := do(t, srv, "GET", "/topics/app/query?threshold="+v, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("threshold=%q = %d, want 400", v, resp.StatusCode)
		}
	}
	// Boundary values are accepted.
	for _, v := range []string{"0", "1", "0.7"} {
		resp := do(t, srv, "GET", "/topics/app/query?threshold="+v, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("threshold=%q = %d, want 200", v, resp.StatusCode)
		}
	}
}

// TestHTTPMissingTopic covers the 404 path of every topic-scoped route.
func TestHTTPMissingTopic(t *testing.T) {
	srv := newHTTPFixture(t)
	cases := []struct {
		method, path string
	}{
		{"POST", "/topics/ghost/logs"},
		{"POST", "/topics/ghost/train"},
		{"POST", "/topics/ghost/compact"},
		{"GET", "/topics/ghost/query"},
		{"GET", "/topics/ghost/stats"},
	}
	for _, c := range cases {
		resp := do(t, srv, c.method, c.path, "a line\n")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}
	// Empty topic name in the path.
	if resp := do(t, srv, "PUT", "/topics/", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT /topics/ = %d, want 400", resp.StatusCode)
	}
	// Invalid topic name on create.
	if resp := do(t, srv, "PUT", "/topics/bad%20name", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("PUT invalid name = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPCompactRoute covers the compaction endpoint on the default
// in-memory config, which seals like every other store, and on an
// unknown topic.
func TestHTTPCompactRoute(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(200, 3)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if resp := do(t, srv, "POST", "/topics/app/compact", ""); resp.StatusCode != http.StatusNoContent {
		t.Errorf("compact = %d, want 204", resp.StatusCode)
	}
	if resp := do(t, srv, "POST", "/topics/ghost/compact", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("compact unknown topic = %d, want 404", resp.StatusCode)
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.SegmentRecords != 200 {
		t.Errorf("after compact: %+v", stats)
	}
}

// TestHTTPQueryNoModel covers the 409 before first training.
func TestHTTPQueryNoModel(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	if err := s.CreateTopic("fresh"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if resp := do(t, srv, "GET", "/topics/fresh/query", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("query before training = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPAsyncIngest pins that ?async=1 is refused with 400 and stores
// nothing: the only HTTP ingest answer is a synchronous 200 after commit.
func TestHTTPAsyncIngest(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := strings.Join(genLines(120, 11), "\n")
	resp, err := srv.Client().Post(srv.URL+"/topics/app/logs?async=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async ingest status = %v, want 400", resp.Status)
	}
	if !strings.Contains(string(b), "ingest-addr") {
		t.Errorf("400 body does not point at the alternatives: %q", b)
	}
	stats, err := s.TopicStats("app")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Fatalf("records after refused async ingest = %d, want 0", stats.Records)
	}
}
