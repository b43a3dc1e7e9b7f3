package main

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/logstore"
	"bytebrain/internal/metrics"
	"bytebrain/internal/service"
)

// Frozen sizes of the service workloads (calibrated on the box named in
// README.md; -smoke divides the line counts by 100).
const (
	topicName = "t"

	ingestBatchLines = 256 // in-process Service.Ingest batch
	wireBatchLines   = 8   // ingest-tcp frame / ingest-http POST
	wireWindow       = 8   // unacked frames on the ingest-tcp connection

	freshWarmLines   = 20000  // ingest-fresh warm-up before the forced Train
	freshChunkLines  = 100000 // lines per generated stream chunk
	freshTrainVolume = 100000 // background trainer trigger on ingest-fresh
	freshGALines     = 50000  // post-training lines scored for accuracy

	poolLines = 8192 // distinct BGL lines of the repeat/tcp/http/mixed pool

	segmentBytes      = 4 << 20   // ingest-fresh, ingest-repeat
	mixedSegmentBytes = 384 << 10 // query-mixed: many small blocks to prune
	mixedPreloadLines = 250000    // query-mixed store before measuring
	mixedSimSpan      = 24 * time.Hour
	mixedRangeWidth   = 15 * time.Minute
	mixedWriteRate    = 20000 // lines/s offered by the open-loop writer
	mixedFrameLines   = 64
	mixedWindow       = 64 // frames the open-loop writer may have unacked
)

type svcKind int

const (
	kindFresh svcKind = iota
	kindRepeat
	kindTCP
	kindHTTP
	kindMixed
)

func (k svcKind) durable() bool { return k == kindFresh || k == kindRepeat || k == kindMixed }

// serviceWorkload is every workload that drives a Service: they share the
// set-up, the read phase and the output checks, and differ in the input
// source, the store, and the way lines reach Service.Ingest.
type serviceWorkload struct {
	kind  svcKind
	cfg   service.Config
	svc   *service.Service
	clock *simClock

	pool   *linePool
	stream *lineStream
	src    source

	httpSrv  *http.Server
	httpDone chan struct{}
	peer     *httpPeer
	tcpAddr  string

	gaFirst      int64 // offset of the first accuracy-scored record
	gaTruth      []int
	stored       int64   // lines acked into the store so far
	raw          int64   // their raw bytes
	preloadAlloc float64 // query-mixed: bytes allocated per preloaded line
	searchToken  string
	topTemplate  uint64
	spanFrom     time.Time // simulated time of the first preloaded batch
	spanTo       time.Time // and of the last
	closed       bool
}

func (w *serviceWorkload) setup(c *runCtx) error {
	seed := c.opt.seed
	w.clock = &simClock{base: simBase, step: time.Second}
	var warm []string
	switch w.kind {
	case kindFresh:
		w.stream = newLineStream("HDFS", c.scale(freshChunkLines), seed)
		w.src = w.stream
		for len(warm) < c.scale(freshWarmLines) {
			warm = append(warm, w.stream.next(c.scale(freshWarmLines)-len(warm))...)
			if w.stream.err != nil {
				return w.stream.err
			}
		}
	default:
		pool, err := newLinePool("BGL", c.scale(poolLines), seed)
		if err != nil {
			return err
		}
		w.pool, w.src = pool, pool
		warm = pool.lines
	}

	w.cfg = service.Config{
		Parser:        core.Options{Seed: seed},
		TrainVolume:   1 << 30,
		TrainInterval: 365 * 24 * time.Hour, // simulated; only volume ever triggers training
		Now:           w.clock.now,
	}
	if w.kind == kindFresh {
		w.cfg.TrainVolume = c.scale(freshTrainVolume)
	}
	if w.kind.durable() {
		w.cfg.DataDir = filepath.Join(c.dir, "data")
		w.cfg.SegmentBytes = segmentBytes
		w.cfg.SegmentCodec = "flate"
		if w.kind == kindMixed {
			w.cfg.SegmentBytes = mixedSegmentBytes
			w.clock.step = mixedSimSpan / time.Duration(c.scale(mixedPreloadLines)/ingestBatchLines)
		}
		if c.opt.smoke {
			w.cfg.SegmentBytes /= 64
		}
	}
	w.svc = service.New(w.cfg)
	if err := w.svc.CreateTopic(topicName); err != nil {
		return err
	}

	// Warm-up: untrained ingest fills the reservoir, then one forced
	// Train publishes the first model.
	if err := w.ingestAll(warm); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.svc.Train(topicName); err != nil {
		return err
	}
	c.trainRates = append(c.trainRates, float64(len(warm))/time.Since(t0).Seconds())

	// The first post-training lines are scored for accuracy: all of them
	// are matched by the first model generation, whatever the trainer
	// does later. On the pool workloads this pass also fills the line
	// cache, so the measured phase starts in the cache-hit regime.
	w.gaFirst = w.stored
	switch w.kind {
	case kindFresh:
		for n := c.scale(freshGALines); len(w.gaTruth) < n; {
			lines, truth := w.stream.nextWithTruth(min(ingestBatchLines, n-len(w.gaTruth)))
			if w.stream.err != nil {
				return w.stream.err
			}
			if err := w.ingestAll(lines); err != nil {
				return err
			}
			w.gaTruth = append(w.gaTruth, truth...)
		}
	default:
		if err := w.ingestAll(w.pool.lines); err != nil {
			return err
		}
		w.gaTruth = w.pool.truth
	}

	if w.kind == kindMixed {
		w.spanFrom = w.clock.peek()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := c.scale(mixedPreloadLines); n > 0; n -= ingestBatchLines {
			if err := w.ingestAll(w.src.next(min(n, ingestBatchLines))); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		w.preloadAlloc = float64(after.TotalAlloc-before.TotalAlloc) / float64(c.scale(mixedPreloadLines))
		w.spanTo = w.clock.peek()
		// Let the background sealer finish the full blocks; the partial
		// last block stays hot.
		store, err := w.svc.Store(topicName)
		if err != nil {
			return err
		}
		if cs, ok := store.(logstore.Compactor); ok {
			cs.WaitIdle()
		}
	} else {
		w.spanFrom, w.spanTo = simBase, w.clock.peek()
	}

	w.searchToken = rareToken(warm)
	store, err := w.svc.Store(topicName)
	if err != nil {
		return err
	}
	counts := store.TemplateCounts(logstore.TimeRange{})
	for id, n := range counts {
		if best := counts[w.topTemplate]; id != 0 && (w.topTemplate == 0 || n > best || (n == best && id < w.topTemplate)) {
			w.topTemplate = id
		}
	}
	return w.listen()
}

// ingestAll feeds lines through Service.Ingest in 256-line batches,
// counting them as stored.
func (w *serviceWorkload) ingestAll(lines []string) error {
	for lo := 0; lo < len(lines); lo += ingestBatchLines {
		batch := lines[lo:min(lo+ingestBatchLines, len(lines))]
		if err := w.svc.Ingest(topicName, batch); err != nil {
			return err
		}
		w.stored += int64(len(batch))
		w.raw += rawBytes(batch)
	}
	return nil
}

// listen starts the HTTP API on a loopback port and, for the workloads
// that write over TCP, the framed ingest listener.
func (w *serviceWorkload) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.svc.Handler()}
	w.httpDone = make(chan struct{})
	go func() {
		defer close(w.httpDone)
		// Serve returns ErrServerClosed after Close; nothing to report.
		_ = w.httpSrv.Serve(ln)
	}()
	w.peer = newHTTPPeer("http://" + ln.Addr().String())
	if w.kind == kindTCP || w.kind == kindMixed {
		addr, err := w.svc.StartNetIngest("127.0.0.1:0")
		if err != nil {
			return err
		}
		w.tcpAddr = addr.String()
	}
	return nil
}

func (w *serviceWorkload) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	if w.peer != nil {
		w.peer.close()
	}
	if w.httpSrv != nil {
		if err := w.httpSrv.Close(); err != nil {
			first = err
		}
		<-w.httpDone
	}
	if w.svc != nil {
		if err := w.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// window runs the workload's measured window once for d: the write path,
// and on query-mixed the five-kind reader beside it. With traced set, the
// writer and the reader each record spans into a tracer of their own.
func (w *serviceWorkload) window(c *runCtx, d time.Duration, traced bool) (writeResult, *readResult, error) {
	if traced {
		c.tr = c.newTracer()
		defer func() {
			c.collect(c.tr)
			c.tr = nil
		}()
	}
	if w.kind != kindMixed {
		wr, err := w.writePhase(c, d)
		return wr, nil, err
	}
	var reads *readResult
	rc := &runCtx{opt: c.opt, epoch: c.epoch}
	if traced {
		rc.tr = rc.newTracer()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = w.readPhase(rc, d)
	}()
	wr, err := w.writePhase(c, d)
	wg.Wait()
	c.ops(rc.attempt, rc.failed)
	c.fails = append(c.fails, rc.fails...)
	if traced {
		c.collect(rc.tr)
	}
	return wr, reads, err
}

// writeResult is what one write phase measured.
type writeResult struct {
	lines int64
	wall  time.Duration // generator time excluded
	alloc uint64        // generator allocation excluded
	lat   *latencies
	late  *latencies // open-loop only: how late each frame was sent
	busy  int64
}

func (r writeResult) rate() float64 { return float64(r.lines) / r.wall.Seconds() }

// writePhase drives the workload's write path for d and returns what it
// measured. Every acked line is added to w.stored.
func (w *serviceWorkload) writePhase(c *runCtx, d time.Duration) (writeResult, error) {
	switch w.kind {
	case kindTCP:
		return w.measure(c, d, w.writeTCP)
	case kindHTTP:
		return w.measure(c, d, w.writeHTTP)
	case kindMixed:
		return w.measure(c, d, w.writeOpenLoop)
	default:
		return w.measure(c, d, func(c *runCtx, d time.Duration, res *writeResult) error {
			return w.writeInProcess(c, d, ingestBatchLines, res)
		})
	}
}

// measure wraps one write loop with the wall-clock and allocation
// accounting shared by every write path.
func (w *serviceWorkload) measure(c *runCtx, d time.Duration, loop func(*runCtx, time.Duration, *writeResult) error) (writeResult, error) {
	res := writeResult{lat: newLatencies(1 << 16)}
	genTime0, genAlloc0 := w.src.overhead()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := loop(c, d, &res)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	genTime1, genAlloc1 := w.src.overhead()
	res.wall = wall - (genTime1 - genTime0)
	res.alloc = after.TotalAlloc - before.TotalAlloc - (genAlloc1 - genAlloc0)
	w.stored += res.lines
	return res, err
}

// writeInProcess is the closed loop of one goroutine calling
// Service.Ingest with batch-line batches.
func (w *serviceWorkload) writeInProcess(c *runCtx, d time.Duration, batch int, res *writeResult) error {
	start := time.Now()
	gen0, _ := w.src.overhead()
	for i := int64(0); ; i++ {
		gen, _ := w.src.overhead()
		if time.Since(start)-(gen-gen0) >= d {
			return nil
		}
		root := c.tr.begin("bench.batch", i, -1)
		lines := w.src.next(batch)
		if len(lines) == 0 {
			return errors.New("line source ran dry")
		}
		sp := c.tr.begin("service.ingest", i, root)
		t0 := time.Now()
		err := w.svc.Ingest(topicName, lines)
		lat := time.Since(t0)
		c.tr.end(sp, len(lines))
		c.tr.end(root, len(lines))
		res.lat.add(time.Since(start), lat)
		if err != nil {
			c.ops(1, 1)
			continue
		}
		c.ops(1, 0)
		res.lines += int64(len(lines))
		w.raw += rawBytes(lines)
	}
}

// writeTCP is the closed loop of one framed connection with wireWindow
// frames in flight.
func (w *serviceWorkload) writeTCP(c *runCtx, d time.Duration, res *writeResult) error {
	fc, err := dialFrames(w.tcpAddr, topicName, wireWindow)
	if err != nil {
		return err
	}
	defer fc.close()
	fc.tracer = c.tr
	start := time.Now()
	fc.onAck = func(p pendingFrame, now time.Time) {
		res.lat.add(now.Sub(start), now.Sub(p.sent))
		res.lines += int64(len(p.lines))
		w.raw += rawBytes(p.lines)
	}
	for i := 0; time.Since(start) < d; i++ {
		if err := fc.send(i, w.src.next(wireBatchLines)); err != nil {
			return err
		}
	}
	err = fc.drain()
	c.ops(int64(fc.seq)-fc.busy, fc.errs)
	res.busy = fc.busy
	return err
}

// writeHTTP is the closed loop of one keep-alive connection POSTing
// wireBatchLines lines at a time.
func (w *serviceWorkload) writeHTTP(c *runCtx, d time.Duration, res *writeResult) error {
	start := time.Now()
	for i := int64(0); time.Since(start) < d; i++ {
		lines := w.src.next(wireBatchLines)
		root := c.tr.begin("bench.request", i, -1)
		sp := c.tr.begin("http.post", i, root)
		t0 := time.Now()
		status, err := w.peer.postLines("/topics/"+topicName+"/logs", lines)
		lat := time.Since(t0)
		c.tr.end(sp, len(lines))
		c.tr.end(root, len(lines))
		res.lat.add(time.Since(start), lat)
		if err != nil || status != http.StatusOK {
			c.ops(1, 1)
			continue
		}
		c.ops(1, 0)
		res.lines += int64(len(lines))
		w.raw += rawBytes(lines)
	}
	return nil
}

// writeOpenLoop sends mixedFrameLines-line frames at a fixed rate over one
// framed connection. Frame i is due at start+i*interval whatever happened
// to earlier frames, and its latency runs from that due time to its ack,
// so a stall is charged to every frame it delayed. Between sends the one
// goroutine waits on the socket for acks until the next frame is due.
func (w *serviceWorkload) writeOpenLoop(c *runCtx, d time.Duration, res *writeResult) error {
	fc, err := dialFrames(w.tcpAddr, topicName, mixedWindow)
	if err != nil {
		return err
	}
	defer fc.close()
	fc.tracer = c.tr
	res.late = newLatencies(1 << 14)
	pace := pacer{start: time.Now(), interval: time.Second * mixedFrameLines / mixedWriteRate}
	fc.onAck = func(p pendingFrame, now time.Time) {
		res.lat.add(now.Sub(pace.start), pace.latency(p.n, now))
		res.lines += int64(len(p.lines))
		w.raw += rawBytes(p.lines)
	}
	for i := 0; pace.due(i).Sub(pace.start) < d; i++ {
		for time.Now().Before(pace.due(i)) {
			if err := fc.awaitAck(pace.due(i)); err != nil {
				return err
			}
		}
		if err := fc.send(i, w.src.next(mixedFrameLines)); err != nil {
			return err
		}
		now := time.Now()
		res.late.add(now.Sub(pace.start), pace.late(i, now))
		if err := fc.flush(); err != nil {
			return err
		}
	}
	err = fc.drain()
	c.ops(int64(fc.seq)-fc.busy, fc.errs)
	res.busy = fc.busy
	return err
}

// The five query kinds, and the reader's cycle over them. The cycle is
// weighted the way a dashboard is: the cheap grouped, range and template
// queries recur, the rare-token search — two orders of magnitude slower —
// comes once per cycle, so it cannot starve the others of samples.
var (
	queryKinds = []string{"grouped", "range", "search", "templates", "samples"}
	readCycle  = []string{
		"grouped", "range", "templates", "grouped", "range", "templates", "grouped", "samples",
		"grouped", "range", "templates", "grouped", "range", "templates", "samples", "search",
	}
)

// readResult holds per-kind query latencies and what the checks need.
type readResult struct {
	lat        map[string]*latencies
	cycle      *latencies // one sample per pass over readCycle
	searchHits []int64    // offsets of the last search response
}

func newReadResult() *readResult {
	r := &readResult{lat: make(map[string]*latencies), cycle: newLatencies(1 << 10)}
	for _, k := range queryKinds {
		r.lat[k] = newLatencies(1 << 12)
	}
	return r
}

// worstP99ms is the largest per-kind slice-median p99.
func (r *readResult) worstP99ms() float64 {
	worst := 0.0
	for _, l := range r.lat {
		worst = max(worst, l.sliceP99ms())
	}
	return worst
}

// queryPath builds the URL path of one query of the given kind; n varies
// the position of range windows so successive queries hit different
// blocks.
func (w *serviceWorkload) queryPath(kind string, n int) string {
	base := "/topics/" + topicName
	window := func() string {
		span := w.spanTo.Sub(w.spanFrom)
		frac := []float64{0.1, 0.7, 0.3, 0.9, 0.5}[n%5]
		from := w.spanFrom.Add(time.Duration(frac * float64(span-mixedRangeWidth))).Truncate(time.Second)
		return "&from=" + from.Format(time.RFC3339) + "&to=" + from.Add(mixedRangeWidth).Format(time.RFC3339)
	}
	switch kind {
	case "grouped":
		return base + "/query?threshold=0.7"
	case "range":
		return base + "/query?threshold=0.7" + window()
	case "search":
		return base + "/search?token=" + url.QueryEscape(w.searchToken)
	case "templates":
		return base + "/templates?id=" + strconv.FormatUint(w.topTemplate, 10) + window()
	default:
		return base + "/query?threshold=0.7&samples=1"
	}
}

// query runs one query over HTTP, records its latency and checks the
// answer: a 200, and for grouped queries a row total between the store
// length before and after the request.
func (w *serviceWorkload) query(c *runCtx, r *readResult, kind string, n int, phaseStart time.Time) {
	store, err := w.svc.Store(topicName)
	if err != nil {
		c.check(false, "store: %v", err)
		return
	}
	lenBefore := store.Len()
	root := c.tr.begin("bench.query", int64(n), -1)
	sp := c.tr.begin("service.query."+kind, int64(n), root)
	t0 := time.Now()
	status, body, err := w.peer.get(w.queryPath(kind, n))
	d := time.Since(t0)
	c.tr.end(sp, 0)
	c.tr.end(root, 0)
	r.lat[kind].add(time.Since(phaseStart), d)
	if err != nil || status != http.StatusOK {
		c.check(false, "%s query: status %d err %v", kind, status, err)
		return
	}
	switch kind {
	case "grouped", "samples":
		var rows []struct{ Count int }
		if err := json.Unmarshal(body, &rows); err != nil {
			c.check(false, "%s query: %v", kind, err)
			return
		}
		total := 0
		for _, row := range rows {
			total += row.Count
		}
		lenAfter := store.Len()
		c.check(total >= lenBefore && total <= lenAfter, "%s query counted %d records, store held %d..%d", kind, total, lenBefore, lenAfter)
	case "search":
		var ans struct{ Offsets []int64 }
		if err := json.Unmarshal(body, &ans); err != nil {
			c.check(false, "search: %v", err)
			return
		}
		c.check(len(ans.Offsets) > 0, "search for %q found nothing", w.searchToken)
		r.searchHits = ans.Offsets
	default:
		c.check(true, "")
	}
}

// readPhase runs the reader for d: whole passes over readCycle, at least
// one. Each pass's wall time is one sample of the cycle latency.
func (w *serviceWorkload) readPhase(c *runCtx, d time.Duration) *readResult {
	r := newReadResult()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; {
		t0 := time.Now()
		for _, kind := range readCycle {
			w.query(c, r, kind, n, start)
			n++
		}
		r.cycle.add(time.Since(start), time.Since(t0))
	}
	return r
}

// verify runs the output checks that do not depend on the write path:
// the store holds exactly the acked lines, search hits contain the token,
// and the first model generation grouped lines accurately.
func (w *serviceWorkload) verify(c *runCtx, reads *readResult) (ga float64, err error) {
	store, err := w.svc.Store(topicName)
	if err != nil {
		return 0, err
	}
	c.check(int64(store.Len()) == w.stored, "store holds %d records, %d were acked", store.Len(), w.stored)

	hits := reads.searchHits
	if len(hits) > 200 {
		hits = hits[:200]
	}
	recs, err := w.svc.Records(topicName, hits)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		c.check(hasToken(rec.Raw, w.searchToken), "search hit at offset %d lacks token %q", rec.Offset, w.searchToken)
	}

	offsets := make([]int64, len(w.gaTruth))
	for i := range offsets {
		offsets[i] = w.gaFirst + int64(i)
	}
	recs, err = w.svc.Records(topicName, offsets)
	if err != nil {
		return 0, err
	}
	pred := make([]int, len(recs))
	for i, rec := range recs {
		pred[i] = int(rec.TemplateID)
	}
	ga, err = metrics.GroupingAccuracy(pred, w.gaTruth)
	if err != nil {
		return 0, err
	}
	c.check(ga >= gaFloor, "grouping accuracy %.4f below floor %.2f", ga, gaFloor)
	return ga, nil
}

// footprint is stored_bytes_per_raw_byte: the data dir after Compact for
// a durable store, the live heap after GC for the in-memory one.
func (w *serviceWorkload) footprint() (float64, error) {
	if !w.kind.durable() {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / float64(w.raw), nil
	}
	if err := w.svc.Compact(topicName); err != nil {
		return 0, err
	}
	n, err := dirBytes(w.cfg.DataDir)
	return float64(n) / float64(w.raw), err
}

// reopen closes the service, opens a second one on the same data dir and
// checks that it recovers exactly the acked lines. It returns how long the
// reopen took.
func (w *serviceWorkload) reopen(c *runCtx) (time.Duration, error) {
	if err := w.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	svc := service.New(w.cfg)
	if err := svc.CreateTopic(topicName); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	store, err := svc.Store(topicName)
	if err != nil {
		svc.Close()
		return 0, err
	}
	c.check(int64(store.Len()) == w.stored, "reopen recovered %d records, %d were acked", store.Len(), w.stored)
	return took, svc.Close()
}

func (w *serviceWorkload) run(c *runCtx) error {
	if c.opt.trace == 1 {
		return w.runTraced(c)
	}
	// Everywhere but query-mixed the read phase comes first, on the store
	// exactly as set-up left it: its size then does not depend on how fast
	// the write phase is. On query-mixed the reader shares the window with
	// the writer. The first tenth of the window warms up (connections,
	// heap growth to a steady GC cadence) and is not measured.
	var reads *readResult
	writeShare := 0.9
	if w.kind != kindMixed {
		w.readPhase(c, c.phase(0.03)) // connection and caches warm
		runtime.GC()
		reads = w.readPhase(c, c.phase(0.12))
		writeShare = 0.75
	}
	if _, _, err := w.window(c, c.phase(0.1), false); err != nil {
		return err
	}
	runtime.GC()
	wr, mixedReads, err := w.window(c, c.phase(writeShare), false)
	if err != nil {
		return err
	}
	if w.kind == kindMixed {
		reads = mixedReads
	}
	foot, err := w.footprint()
	if err != nil {
		return err
	}
	// One grouped query and one search on the final store feed the output
	// checks (row counts sum to Len; hits contain the token).
	final := newReadResult()
	w.query(c, final, "grouped", 0, time.Now())
	w.query(c, final, "search", 0, time.Now())
	ga, err := w.verify(c, final)
	if err != nil {
		return err
	}
	if w.kind.durable() {
		if _, err := w.reopen(c); err != nil {
			return err
		}
	}
	c.check(wr.lines > 0, "no line was acked")

	alloc := float64(wr.alloc) / float64(max(wr.lines, 1))
	if w.kind == kindMixed {
		// The window's allocation is mostly the reader's and scales with
		// how many queries it got through; the preload is the same lines
		// through the same ingest path with nothing beside it.
		alloc = w.preloadAlloc
	}
	c.set("logs_per_s", wr.rate())
	c.set("write_p50_ms", wr.lat.p50ms())
	c.set("alloc_bytes_per_line", alloc)
	c.set("grouping_accuracy", ga)
	c.set("stored_bytes_per_raw_byte", foot)
	c.set("query_cycle_ms", reads.cycle.p50ms())

	// Not in the end-to-end table: these land in -out run-sets, where
	// their spread can be watched from run to run.
	c.set("train_logs_per_s", median(c.trainRates))
	c.set("write_p99_ms", wr.lat.sliceP99ms())
	c.set("query_p99_ms", reads.worstP99ms())
	for _, k := range queryKinds {
		c.set("service.query."+k+".p50_ms", reads.lat[k].p50ms())
	}
	if wr.late != nil {
		c.set("writer.late_p99_ms", wr.late.sliceP99ms())
	}
	return nil
}
