package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
)

// newDegradedFixture builds a persistent service over a FaultFS with
// fast seal-retry and probe knobs, one trained topic, and returns the
// service plus the filesystem so tests can script faults.
func newDegradedFixture(t *testing.T) (*Service, *fsx.FaultFS) {
	t.Helper()
	fsys := fsx.NewFaultFS()
	cfg := testConfig()
	cfg.DataDir = "/data"
	cfg.SegmentBytes = 4096
	cfg.WALFsyncEveryBatches = 1
	cfg.FS = fsys
	s := New(cfg)
	s.storeOpts = logstore.StoreOptions{
		SealRetryBase:  time.Millisecond,
		SealRetryMax:   2 * time.Millisecond,
		SealMaxRetries: 1,
		ProbeInterval:  10 * time.Millisecond,
	}
	t.Cleanup(func() { s.Close() })
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}
	return s, fsys
}

// diskFullHook fails every write-side op under dir with ENOSPC.
func diskFullHook(dir string) fsx.Hook {
	return func(op fsx.OpInfo) error {
		if !strings.HasPrefix(op.Path, dir) {
			return nil
		}
		switch op.Kind {
		case fsx.OpWrite, fsx.OpSync, fsx.OpCreate, fsx.OpRename, fsx.OpSyncDir, fsx.OpWriteFile, fsx.OpTruncate:
			return fsx.ErrNoSpace
		}
		return nil
	}
}

// TestServiceDegradedENOSPC is the end-to-end degraded-mode test the
// issue calls for: a full disk flips the store to degraded read-only —
// ingest sheds with 503 and /readyz goes unready while queries, stats
// and metrics keep answering — and once space returns the background
// probe re-arms writes with no restart. Throughout, no 2xx is sent for
// a line that is not stored: ?async=1 is refused with 400, and after the
// re-arm Records is exactly the baseline plus every 200-acked line.
func TestServiceDegradedENOSPC(t *testing.T) {
	s, fsys := newDegradedFixture(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) (int, string) {
		resp, err := srv.Client().Post(srv.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	records := func() int {
		st, err := s.TopicStats("app")
		if err != nil {
			t.Fatal(err)
		}
		return st.Records
	}
	// acked counts the lines of every POST answered 200: each must be
	// stored, whatever the disk did meanwhile.
	acked := 0
	ack := func(body string) {
		var r struct{ Ingested int }
		if err := json.Unmarshal([]byte(body), &r); err != nil || r.Ingested == 0 {
			t.Fatalf("200 ingest body %q (%v)", body, err)
		}
		acked += r.Ingested
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before fault = %d, want 200", code)
	}
	baseline := records()

	// The disk fills under the topic's record store (models stay
	// writable — degraded mode is about the ingest path).
	fsys.SetHook(diskFullHook("/data/app/records"))

	// Ingest until the store degrades and sheds with 503. The first
	// write may still be admitted (its swallowed fsync is what trips the
	// degrade), so allow a few rounds.
	lines := strings.Join(genLines(50, 7), "\n")
	shed := false
	for i := 0; i < 10 && !shed; i++ {
		code, body := post("/topics/app/logs", lines)
		switch code {
		case http.StatusOK:
			ack(body)
		case http.StatusServiceUnavailable:
			shed = true
			if !strings.Contains(body, "degraded") {
				t.Errorf("503 body does not mention degraded: %q", body)
			}
		default:
			t.Fatalf("ingest under ENOSPC = %d (%q), want 200 or 503", code, body)
		}
	}
	if !shed {
		t.Fatal("ingest never shed with 503 under ENOSPC")
	}

	// The shedding store must not be reachable through a 2xx that
	// commits nothing: ?async=1 is refused outright and stores nothing.
	before := records()
	if code, body := post("/topics/app/logs?async=1", lines); code != http.StatusBadRequest {
		t.Fatalf("async ingest while degraded = %d (%q), want 400", code, body)
	}
	if got := records(); got != before {
		t.Fatalf("refused async ingest moved Records %d → %d", before, got)
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "app") {
		t.Fatalf("/readyz degraded = %d (%q), want 503 naming the topic", code, body)
	}

	// Reads keep serving: search, grouped query, templates, stats.
	if code, body := get("/topics/app/search?token=cache"); code != http.StatusOK || !strings.Contains(body, "count") {
		t.Fatalf("search on degraded store = %d (%q)", code, body)
	}
	if code, _ := get("/topics/app/query"); code != http.StatusOK {
		t.Fatalf("query on degraded store = %d, want 200", code)
	}
	code, body := get("/topics/app/stats")
	if code != http.StatusOK {
		t.Fatalf("stats on degraded store = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("stats degraded fields = %+v", st)
	}

	// The scrape endpoint stays up and reports the degraded gauge.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics on degraded store = %d", code)
	}
	if !strings.Contains(body, `bb_store_degraded{topic="app"} 1`) {
		t.Error("bb_store_degraded gauge not 1 while degraded")
	}
	if !strings.Contains(body, "bb_store_degraded_enters_total") {
		t.Error("bb_store_degraded_enters_total family missing")
	}

	// Space returns: the background probe must re-arm ingest without a
	// restart.
	fsys.SetHook(nil)
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		if code, body := post("/topics/app/logs", lines); code == http.StatusOK {
			ack(body)
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("ingest did not recover after space returned")
	}
	// Every 200 was a commit and nothing else was: no acked line was
	// dropped, and no shed or refused request left records behind.
	if got, want := records(), baseline+acked; got != want {
		t.Fatalf("Records after re-arm = %d, want baseline %d + %d acked lines", got, baseline, acked)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, `bb_store_degraded{topic="app"} 0`) {
		t.Errorf("bb_store_degraded gauge not 0 after recovery (%d)", code)
	}
}

// TestNetIngestBusyWhenDegraded asserts the TCP ingest sink translates
// degraded-mode shedding into the wire's BUSY semantics so clients back
// off and resend instead of treating frames as rejected.
func TestNetIngestBusyWhenDegraded(t *testing.T) {
	s, fsys := newDegradedFixture(t)
	fsys.SetHook(diskFullHook("/data/app/records"))
	var lastErr error
	for i := 0; i < 10; i++ {
		if lastErr = s.netIngest("app", genLines(50, 11)); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("netIngest never failed under ENOSPC")
	}
	if !errors.Is(lastErr, netingest.ErrBusy) {
		t.Fatalf("netIngest degraded error = %v, want ErrBusy", lastErr)
	}
	fsys.SetHook(nil)
}
