package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"bytebrain/internal/logstore"
)

// scanBufPool leases the 64 KiB initial scanner buffer the /logs
// handler hands to bufio.Scanner, instead of allocating it per request.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// Handler returns the HTTP API of the service, mirroring the paper's
// user-facing surface:
//
//	PUT  /topics/{name}                create a topic
//	GET  /topics                       list topics
//	POST /topics/{name}/logs           ingest newline-separated raw logs;
//	                                   200 means the store admitted every
//	                                   line (?async=1 is refused with 400)
//	POST /topics/{name}/train          force a training cycle
//	POST /topics/{name}/compact        seal the hot block into a
//	                                   compressed segment
//	GET  /topics/{name}/query?threshold=0.7
//	                                   records grouped by template at the
//	                                   given precision (the web UI slider);
//	                                   &from=<RFC3339>&to=<RFC3339> bound
//	                                   the query to a time range (pushed
//	                                   down to sealed-segment metadata so
//	                                   only overlapping blocks are read),
//	                                   and &since=15m is shorthand for
//	                                   from=now-15m
//	GET  /topics/{name}/search?token=x offsets of records whose raw line
//	                                   contains the token (token-filter
//	                                   pushdown skips sealed blocks)
//	GET  /topics/{name}/templates?id=3&id=7
//	                                   offsets of records stored under the
//	                                   given template IDs
//	GET  /topics/{name}/stats          operational counters
//	GET  /metrics                      Prometheus text exposition
//	GET  /healthz                      liveness
//	GET  /readyz                       readiness: 503 while any topic's
//	                                   store is degraded to read-only
//	                                   (disk full / persistent seal
//	                                   failure); queries keep serving
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if deg := s.DegradedTopics(); len(deg) > 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"ready": false, "degraded": deg})
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/topics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, s.Topics())
	})
	mux.HandleFunc("/topics/", s.topicRoutes)
	return mux
}

func (s *Service) topicRoutes(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/topics/")
	name, action, _ := strings.Cut(rest, "/")
	if name == "" {
		http.Error(w, "missing topic name", http.StatusBadRequest)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodPut:
		if err := s.CreateTopic(name); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case action == "logs" && r.Method == http.MethodPost:
		if r.URL.Query().Get("async") == "1" {
			// A 202 before the store commits would ack lines a degraded
			// store can still drop; there is no fire-and-forget ingest.
			http.Error(w, "async ingest is not supported: POST without ?async=1 (200 = committed) or stream over the TCP ingest listener (-ingest-addr)", http.StatusBadRequest)
			return
		}
		sc := bufio.NewScanner(r.Body)
		// The scanner's initial buffer is leased from a pool rather
		// than allocated per request: line bytes are copied out by
		// sc.Text(), so nothing retains it past the handler. If the
		// scanner outgrows it (lines past 64 KiB) the grown buffer is
		// the scanner's own; the pooled one simply goes back at its
		// original size.
		scanBuf := scanBufPool.Get().(*[]byte)
		defer scanBufPool.Put(scanBuf)
		sc.Buffer((*scanBuf)[:0], 4*1024*1024)
		var lines []string
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				lines = append(lines, line)
			}
		}
		if err := sc.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Ingest(name, lines); err != nil {
			httpTopicError(w, err)
			return
		}
		writeJSON(w, map[string]int{"ingested": len(lines)})
	case action == "train" && r.Method == http.MethodPost:
		if err := s.Train(name); err != nil {
			httpTopicError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case action == "compact" && r.Method == http.MethodPost:
		if err := s.Compact(name); err != nil {
			httpTopicError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case action == "query" && r.Method == http.MethodGet:
		threshold, tr, perr := parseQueryParams(r.URL.Query(), s.cfg.Now)
		if perr != "" {
			http.Error(w, perr, http.StatusBadRequest)
			return
		}
		query := s.Query
		if r.URL.Query().Get("merged") == "1" {
			// §7 response-layer view: variable-length list variants
			// group under one display template.
			query = s.QueryMerged
		}
		rows, err := query(name, threshold, tr)
		if err != nil {
			httpTopicError(w, err)
			return
		}
		if r.URL.Query().Get("samples") == "1" {
			if err := s.fillSampleLines(name, rows); err != nil {
				httpTopicError(w, err)
				return
			}
		}
		writeJSON(w, rows)
	case action == "search" && r.Method == http.MethodGet:
		token := r.URL.Query().Get("token")
		if token == "" {
			http.Error(w, "token parameter is required", http.StatusBadRequest)
			return
		}
		tr, perr := parseTimeRange(r.URL.Query(), s.cfg.Now)
		if perr != "" {
			http.Error(w, perr, http.StatusBadRequest)
			return
		}
		offs, err := s.Search(name, token, tr)
		if err != nil {
			httpTopicError(w, err)
			return
		}
		writeJSON(w, map[string]any{"count": len(offs), "offsets": offs})
	case action == "templates" && r.Method == http.MethodGet:
		var ids []uint64
		for _, v := range r.URL.Query()["id"] {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "id must be an unsigned integer template ID", http.StatusBadRequest)
				return
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			http.Error(w, "at least one id parameter is required", http.StatusBadRequest)
			return
		}
		tr, perr := parseTimeRange(r.URL.Query(), s.cfg.Now)
		if perr != "" {
			http.Error(w, perr, http.StatusBadRequest)
			return
		}
		offs, err := s.ByTemplate(name, tr, ids...)
		if err != nil {
			httpTopicError(w, err)
			return
		}
		writeJSON(w, map[string]any{"count": len(offs), "offsets": offs})
	case action == "stats" && r.Method == http.MethodGet:
		stats, err := s.TopicStats(name)
		if err != nil {
			httpTopicError(w, err)
			return
		}
		writeJSON(w, stats)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// parseQueryParams validates the query endpoint's parameters strictly: a
// malformed value is a 400, never silently ignored. It returns the
// threshold (0 = service default), the time range, and a non-empty error
// message on invalid input.
//
//	threshold  float in [0,1]; NaN, ±Inf and out-of-range values are
//	           rejected, negative zero is normalized to zero
//	from, to   RFC 3339 timestamps (inclusive bounds); from must not be
//	           after to
//	since      Go duration (e.g. 15m) — sugar for from=now-since;
//	           mutually exclusive with from/to
func parseQueryParams(q url.Values, now func() time.Time) (threshold float64, tr TimeRange, errMsg string) {
	if q.Has("threshold") {
		v := q.Get("threshold")
		f, err := strconv.ParseFloat(v, 64)
		// Explicitly exclude the IEEE 754 specials: ParseFloat accepts
		// "NaN" and "Inf" spellings, and overflow (e.g. 1e309) returns
		// ±Inf alongside ErrRange.
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
			return 0, tr, "threshold must be a number in [0,1]"
		}
		if math.Signbit(f) {
			// "-0" parses to negative zero; normalize so downstream
			// comparisons never see a signed zero.
			f = 0
		}
		threshold = f
	}
	tr, errMsg = parseTimeRange(q, now)
	if errMsg != "" {
		return 0, tr, errMsg
	}
	return threshold, tr, ""
}

// parseTimeRange validates the shared from/to/since time-bound
// parameters (query, search, and templates routes all accept them) with
// the same strictness as parseQueryParams: a malformed value is always
// a 400, never silently ignored.
func parseTimeRange(q url.Values, now func() time.Time) (tr TimeRange, errMsg string) {
	hasFrom, hasTo, hasSince := q.Has("from"), q.Has("to"), q.Has("since")
	if hasSince && (hasFrom || hasTo) {
		return tr, "since is shorthand for from=now-since; do not combine it with from/to"
	}
	if hasSince {
		d, err := time.ParseDuration(q.Get("since"))
		if err != nil || d <= 0 {
			return tr, "since must be a positive duration such as 15m or 1h30m"
		}
		tr.From = now().Add(-d)
		return tr, ""
	}
	if hasFrom {
		t, err := time.Parse(time.RFC3339, q.Get("from"))
		if err != nil {
			return tr, "from must be an RFC 3339 timestamp such as 2026-07-26T12:00:00Z"
		}
		tr.From = t
	}
	if hasTo {
		t, err := time.Parse(time.RFC3339, q.Get("to"))
		if err != nil {
			return tr, "to must be an RFC 3339 timestamp such as 2026-07-26T12:15:00Z"
		}
		tr.To = t
	}
	if tr.Empty() {
		return tr, "from must not be after to"
	}
	return tr, ""
}

func httpTopicError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, logstore.ErrDegraded) {
		// Degraded read-only mode sheds ingest with 503 so load
		// balancers retry elsewhere; queries are unaffected.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if strings.Contains(err.Error(), "unknown topic") {
		status = http.StatusNotFound
	} else if strings.Contains(err.Error(), "no trained model") {
		status = http.StatusConflict
	} else if strings.Contains(err.Error(), "service: closed") {
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
