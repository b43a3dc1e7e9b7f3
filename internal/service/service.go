// Package service implements the cloud log-parsing service of §3: topics
// with ingestion pipelines that match logs against the current model
// before appending to storage, volume- and time-triggered periodic
// retraining with model merging, reservoir sampling against OOM on huge
// volumes, and query-time precision control.
//
// The ingestion hot path is lock-free: the current (model, matcher) pair
// is published through an atomic pointer, matching runs against that
// immutable snapshot with no topic lock, appends go straight to the
// store (which serializes internally), and the only critical section is
// a short reservoir offer behind its own small mutex. Retraining runs in
// a per-topic background goroutine and swaps the snapshot in atomically
// when it finishes, so training never stalls ingestion.
package service

import (
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bytebrain/internal/core"
	"bytebrain/internal/fsx"
	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
	"bytebrain/internal/obs"
	"bytebrain/internal/segment"
	"bytebrain/internal/template"
)

// Config tunes a Service.
type Config struct {
	// Parser configures the core parser for every topic.
	Parser core.Options
	// TrainVolume triggers retraining after this many new records
	// (default 10 000).
	TrainVolume int
	// TrainInterval triggers retraining after this much time since the
	// last cycle, checked lazily at ingestion (default 5 minutes — the
	// paper configures initial training to finish within that bound).
	TrainInterval time.Duration
	// SampleCap bounds the training buffer; beyond it, reservoir
	// sampling keeps a uniform subset ("for exceptionally large log
	// volumes, random sampling prevents OOM issues"). Default 50 000.
	SampleCap int
	// DefaultThreshold is the query threshold when the caller does not
	// specify one (default 0.7).
	DefaultThreshold float64
	// DataDir, when set, persists every topic under DataDir/<topic>:
	// the compacting segment store writes a write-ahead log for the hot
	// block and its sealed compressed segments there, next to the model
	// snapshots, and topics recover on restart. Empty keeps the same
	// store in memory, sealed segments as compressed blobs.
	DataDir string
	// SegmentBytes is the raw size at which the compacting segment store
	// seals its hot block: hot writes stay in memory and a background
	// compactor seals blocks of this size into compressed columnar
	// segments. 0 means the 4 MiB default, with or without DataDir.
	// Grouped queries push template IDs down to segment metadata and
	// skip non-matching blocks entirely.
	SegmentBytes int64
	// SegmentCodec selects the sealed-payload compression: "flate"
	// (default) or "none".
	SegmentCodec string
	// SnapshotRetain > 0 bounds the internal topic under DataDir: only
	// the newest SnapshotRetain model snapshots are kept per topic (plus
	// periodic checkpoints, see SnapshotCheckpointEvery). 0 keeps every
	// snapshot. Without DataDir a topic keeps only its live model.
	SnapshotRetain int
	// SnapshotCheckpointEvery > 0 additionally retains every Nth
	// snapshot as a checkpoint when SnapshotRetain prunes, preserving a
	// sparse training history. 0 keeps nothing beyond the latest K.
	SnapshotCheckpointEvery int
	// LineCacheCap bounds how many distinct raw lines one model
	// snapshot's line cache memoizes (default 65536). At the cap the
	// cache evicts wholesale — a fresh generation replaces the full map,
	// so recent repeats keep memoizing instead of silently degrading —
	// and the eviction is counted in metrics and /stats.
	LineCacheCap int
	// SlowQueryThreshold, when > 0, logs every query (grouped, template,
	// search, time-range) that takes at least this long as a structured
	// slow-query line and counts it in metrics and /stats.
	SlowQueryThreshold time.Duration
	// SlowQueryLogf receives slow-query lines; defaults to log.Printf.
	SlowQueryLogf func(format string, args ...any)
	// WALFsyncEveryBatches / WALFsyncInterval tune the segment store's
	// WAL fsync policy (see logstore.StoreOptions); zero values keep the
	// historical fsync-on-seal-only behavior.
	WALFsyncEveryBatches int
	WALFsyncInterval     time.Duration
	// FS is the filesystem every persistent store writes through; nil
	// means the real filesystem. Fault-injection tests swap in an
	// fsx.FaultFS to script ENOSPC and crash images end to end.
	FS fsx.FS
	// Now supplies timestamps; tests override it. Defaults to time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TrainVolume <= 0 {
		c.TrainVolume = 10000
	}
	if c.TrainInterval <= 0 {
		c.TrainInterval = 5 * time.Minute
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 50000
	}
	if c.DefaultThreshold <= 0 {
		c.DefaultThreshold = 0.7
	}
	if c.LineCacheCap <= 0 {
		c.LineCacheCap = lineCacheCap
	}
	if c.SlowQueryLogf == nil {
		c.SlowQueryLogf = log.Printf
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// maxSampleOffsets is how many example record offsets a query row carries.
const maxSampleOffsets = 5

// TimeRange bounds a query to records with From <= Time <= To (both
// inclusive; zero sides are unbounded). It pushes down through the store
// to sealed-segment metadata, so a narrow range over a long history reads
// only the blocks that overlap it.
type TimeRange = logstore.TimeRange

// Service manages log topics. All methods are safe for concurrent use.
type Service struct {
	cfg Config
	met *serviceMetrics // the service's private metrics registry + families

	mu     sync.RWMutex
	topics map[string]*topicState

	// trainHook, when set by tests, runs inside every training cycle
	// after the reservoir hand-off — while ingestion must stay live.
	trainHook func(topic string)

	// storeOpts, when set by tests, carries the seal-retry and probe
	// timing of every topic store; openTopicStore fills in the rest.
	// Zero fields take the logstore.StoreOptions defaults.
	storeOpts logstore.StoreOptions

	// Streaming TCP ingest listeners started via StartNetIngest; closed
	// ahead of the stores in Close. netClosed is the service's closed
	// flag: it flips under netMu when Close drains the list, so a
	// StartNetIngest racing with Close either registers before the drain
	// or sees the flag and shuts its fresh listener down itself.
	netMu      sync.Mutex
	netServers []*netingest.Server
	netClosed  bool
}

// modelSnapshot is the atomically published read side of a topic: the
// trained model, its matcher, and the serialized model bytes (cached at
// train/recover time so stats never re-marshal under load).
type modelSnapshot struct {
	model      *core.Model
	matcher    *core.Matcher
	modelBytes []byte

	// cache memoizes raw line → template ID for this snapshot's
	// lifetime — the cross-batch extension of MatchBatch's within-batch
	// deduplication. Real streams repeat raw lines heavily (§4.1.3,
	// Fig. 4: duplication dominates; it is the largest factor in the
	// paper's efficiency ablation), and matching is deterministic within
	// one matcher generation, so a repeat can skip the mask/tokenize/
	// lookup pipeline entirely. The cache dies with the snapshot at every
	// model swap, which keeps it coherent with overlay pruning for free.
	//
	// Growth is bounded by cacheCap per GENERATION: at the cap a fresh
	// generation replaces the full map (one CAS; the old map becomes
	// garbage), so hot repeats re-memoize immediately instead of the
	// cache silently freezing on whatever lines came first. Evictions
	// are counted so over-cap topics are visible in /metrics and /stats.
	cache     atomic.Pointer[lineCacheGen]
	cacheCap  int64        // 0 → lineCacheCap
	evictions *obs.Counter // nil-safe; counts generation swaps

	// display memoizes *core.Node → its display template text
	// (template.MergeConsecutiveWildcards), which every grouped, range
	// and samples query row would otherwise rebuild. Nodes reachable
	// from a published snapshot are never mutated: MergeModels widens
	// clones (cloneNode), and overlay temporaries are immutable once
	// inserted.
	display sync.Map
}

// displayTemplate returns n's display template, memoized per snapshot.
func (sn *modelSnapshot) displayTemplate(n *core.Node) string {
	if v, ok := sn.display.Load(n); ok {
		return v.(string)
	}
	text := template.MergeConsecutiveWildcards(n.Template)
	sn.display.Store(n, text)
	return text
}

// lineCacheGen is one bounded generation of the line cache.
type lineCacheGen struct {
	m sync.Map // string → uint64
	n atomic.Int64
}

// lineCacheCap is the default per-generation line-cache bound.
const lineCacheCap = 1 << 16

// gen returns the live cache generation, installing the first one on a
// directly-constructed snapshot.
func (sn *modelSnapshot) gen() *lineCacheGen {
	g := sn.cache.Load()
	if g == nil {
		g = &lineCacheGen{}
		if !sn.cache.CompareAndSwap(nil, g) {
			g = sn.cache.Load()
		}
	}
	return g
}

func (sn *modelSnapshot) capLimit() int64 {
	if sn.cacheCap > 0 {
		return sn.cacheCap
	}
	return lineCacheCap
}

// cacheLen reports the live generation's entry count.
func (sn *modelSnapshot) cacheLen() int64 {
	return sn.gen().n.Load()
}

// cachedID returns the memoized template ID for line, if any.
func (sn *modelSnapshot) cachedID(line string) (uint64, bool) {
	v, ok := sn.gen().m.Load(line)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// cacheID memoizes line → id; at the generation cap it evicts the whole
// generation instead of storing, so the next repeats memoize afresh.
func (sn *modelSnapshot) cacheID(line string, id uint64) {
	g := sn.gen()
	if g.n.Load() >= sn.capLimit() {
		if sn.cache.CompareAndSwap(g, &lineCacheGen{}) {
			sn.evictions.Inc()
		}
		return
	}
	if _, loaded := g.m.LoadOrStore(line, id); !loaded {
		g.n.Add(1)
	}
}

type topicState struct {
	name     string
	parser   *core.Parser
	store    logstore.Store
	internal *logstore.DiskInternal // model snapshots; nil without DataDir
	met      *topicMetrics          // resolved once at create; never nil
	cacheCap int64

	// snap is nil until the first training completes. Matching and
	// queries Load it; only a finished training cycle Stores it.
	snap atomic.Pointer[modelSnapshot]

	// Training reservoir behind its own small mutex — the one brief
	// critical section on the ingestion path.
	resMu   sync.Mutex
	buffer  []string
	bufSeen int // lines offered since the last hand-off
	rng     *rand.Rand

	// Training triggers, updated lock-free by Ingest.
	sinceLast atomic.Int64 // records since the last cycle
	lastTrain atomic.Int64 // unix nanos of the last cycle
	trainings atomic.Int64

	// Background trainer.
	trainMu   sync.Mutex // serializes training cycles (goroutine + forced Train)
	training  atomic.Bool
	trainCh   chan struct{}
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	errMu     sync.Mutex
	lastErr   error
	sampleCap int
}

// New creates a Service.
func New(cfg Config) *Service {
	return &Service{
		cfg:    cfg.withDefaults(),
		met:    newServiceMetrics(obs.NewRegistry()),
		topics: make(map[string]*topicState),
	}
}

// Registry exposes the service's metrics registry — the /metrics handler
// scrapes it, and embedders may add their own instruments.
func (s *Service) Registry() *obs.Registry { return s.met.reg }

// topicSeed derives the reservoir RNG seed from a hash of the topic name,
// so distinct topics sample independently (a plain len(name)-based seed
// made every same-length topic share one sequence).
func topicSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// CreateTopic registers a topic. With DataDir configured the topic is
// persistent and recovers any existing on-disk state (records replayed,
// latest model snapshot reloaded). Creating an already-registered topic is
// an error.
func (s *Service) CreateTopic(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty topic name")
	}
	if strings.ContainsAny(name, "/\\ ") {
		return fmt.Errorf("service: invalid topic name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.topics[name]; ok {
		return fmt.Errorf("service: topic %q exists", name)
	}
	st := &topicState{
		name:      name,
		parser:    core.New(s.cfg.Parser),
		met:       s.met.topic(name),
		cacheCap:  int64(s.cfg.LineCacheCap),
		rng:       rand.New(rand.NewSource(topicSeed(name))),
		trainCh:   make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		sampleCap: s.cfg.SampleCap,
	}
	st.lastTrain.Store(s.cfg.Now().UnixNano())
	store, err := s.openTopicStore(name, st.met.store)
	if err != nil {
		return err
	}
	st.store = store
	if s.cfg.DataDir != "" {
		internal, err := logstore.OpenDiskInternalFS(s.cfg.FS, filepath.Join(s.cfg.DataDir, name, "models"))
		if err != nil {
			store.Close()
			return err
		}
		if s.cfg.SnapshotRetain > 0 {
			// Bound the internal topic: keep the newest K snapshots plus
			// periodic checkpoints instead of every training cycle's model.
			internal.SetRetention(logstore.Retention{
				Latest:          s.cfg.SnapshotRetain,
				CheckpointEvery: s.cfg.SnapshotCheckpointEvery,
			})
		}
		st.internal = internal
		if err := st.recover(); err != nil {
			store.Close()
			return err
		}
	}
	st.wg.Add(1)
	go s.trainLoop(st)
	s.met.bindTopicGauges(st)
	s.topics[name] = st
	return nil
}

// openTopicStore builds one topic's compacting record store from the
// config knobs. With DataDir set it recovers existing on-disk state.
func (s *Service) openTopicStore(name string, lm *logstore.Metrics) (logstore.Store, error) {
	dir := ""
	if s.cfg.DataDir != "" {
		dir = filepath.Join(s.cfg.DataDir, name, "records")
	}
	codec, err := segment.ParseCodec(s.cfg.SegmentCodec)
	if err != nil {
		return nil, fmt.Errorf("service: topic %q: %w", name, err)
	}
	opts := s.storeOpts
	opts.Metrics = lm
	opts.FsyncEveryBatches = s.cfg.WALFsyncEveryBatches
	opts.FsyncInterval = s.cfg.WALFsyncInterval
	opts.FS = s.cfg.FS
	return logstore.OpenCompacting(name, logstore.CompactConfig{
		Dir:          dir,
		SegmentBytes: s.cfg.SegmentBytes,
		Codec:        codec,
		Opts:         opts,
	})
}

// recover reloads the latest persisted model after a restart and
// publishes it as the initial snapshot. A snapshot that no longer
// unmarshals (a torn or corrupt checkpoint) is quarantined and the next
// older one tried, so reopening never fails unrecoverably on bad
// snapshot bytes — worst case the topic restarts untrained, which the
// next training cycle repairs. Runs before the topic is visible, so no
// synchronization is needed.
func (st *topicState) recover() error {
	for {
		data, err := st.internal.LatestSnapshot()
		if err != nil {
			if err == logstore.ErrNoSnapshot {
				return nil
			}
			return err
		}
		model := core.NewModel()
		if err := model.UnmarshalBinary(data); err != nil {
			log.Printf("service: recover %s: quarantining corrupt model snapshot: %v", st.name, err)
			if qerr := st.internal.QuarantineLatest(); qerr != nil {
				return fmt.Errorf("service: recover %s: quarantine corrupt snapshot: %w", st.name, qerr)
			}
			continue
		}
		matcher, err := st.parser.NewMatcher(model)
		if err != nil {
			log.Printf("service: recover %s: quarantining unusable model snapshot: %v", st.name, err)
			if qerr := st.internal.QuarantineLatest(); qerr != nil {
				return fmt.Errorf("service: recover %s: quarantine unusable snapshot: %w", st.name, qerr)
			}
			continue
		}
		st.snap.Store(st.newSnapshot(model, matcher, data))
		// Every cycle wrote one snapshot; retention and quarantine
		// remove files but not cycles.
		_, written := st.internal.Snapshots()
		st.trainings.Store(int64(written))
		return nil
	}
}

// newSnapshot builds a publishable snapshot wired to the topic's line-
// cache cap and eviction counter.
func (st *topicState) newSnapshot(model *core.Model, matcher *core.Matcher, data []byte) *modelSnapshot {
	sn := &modelSnapshot{model: model, matcher: matcher, modelBytes: data, cacheCap: st.cacheCap}
	if st.met != nil {
		sn.evictions = st.met.cacheEvictions
	}
	sn.cache.Store(&lineCacheGen{})
	return sn
}

// Close stops the network listeners and background trainers, and flushes
// and closes every topic store.
func (s *Service) Close() error {
	var firstErr error
	// Network listeners go first: their workers call Ingest
	// synchronously, so draining them before the stores means every
	// acked frame is already committed when the stores shut.
	s.netMu.Lock()
	servers := s.netServers
	s.netServers = nil
	s.netClosed = true
	s.netMu.Unlock()
	for _, srv := range servers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.topics {
		st.stopOnce.Do(func() { close(st.stopCh) })
		st.wg.Wait()
		if err := st.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Topics lists topic names, sorted.
func (s *Service) Topics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.topics))
	for n := range s.topics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Service) topic(name string) (*topicState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.topics[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown topic %q", name)
	}
	return st, nil
}

// ingestScratch is the pooled per-call working set of the ingestion hot
// path: the batch records handed to AppendBatch (which subsumes the old
// per-call ids slice) and the cache-miss bookkeeping. Pooling it makes
// the steady-state path allocation-free on the service side.
type ingestScratch struct {
	recs  []logstore.BatchRecord
	miss  []int    // batch indexes whose lines missed the line cache
	lines []string // the missed lines, in miss order, for MatchBatch
}

var ingestScratchPool = sync.Pool{
	New: func() any { return new(ingestScratch) },
}

// maxPooledBatch bounds the batch size whose scratch is worth parking in
// the pool: HTTP requests and TCP frames carry up to a few thousand
// lines, but an Ingest of a whole file could grow a scratch to millions
// of entries that would then sit in the pool forever.
const maxPooledBatch = 1 << 14

// Ingest appends lines to the topic: the batch is matched against the
// current model snapshot (template IDs are computed before the record is
// written, as the indexing pipeline requires) without taking any topic
// lock, then stored. Unmatched logs become temporary templates inside the
// matcher. Training triggers lazily on volume or elapsed-interval and
// runs in the topic's background trainer, never blocking the caller.
//
// The whole batch is one group commit: template IDs for every line are
// resolved first — from the snapshot's line cache for repeats, through
// the matcher's deduplicated MatchBatch for the rest — and then a single
// AppendBatch hands the batch to the store, which takes one lock and
// writes one WAL run instead of one per record. The batch is therefore
// also the durability and poison boundary: a WAL failure fails the batch
// from the torn record on, never splitting a record. A nil return means
// the store admitted every line.
func (s *Service) Ingest(topicName string, lines []string) error {
	st, err := s.topic(topicName)
	if err != nil {
		return err
	}
	now := s.cfg.Now()
	scratch := ingestScratchPool.Get().(*ingestScratch)
	defer func() {
		if cap(scratch.recs) > maxPooledBatch {
			return // oversized one-off batch; let the GC take it
		}
		// Drop the string references before pooling so a parked scratch
		// cannot pin a whole batch of lines in memory.
		clear(scratch.recs)
		clear(scratch.lines)
		ingestScratchPool.Put(scratch)
	}()
	recs := scratch.recs[:0]
	for _, line := range lines {
		recs = append(recs, logstore.BatchRecord{Raw: line})
	}
	scratch.recs = recs
	// Lock-free read side: resolve template IDs against the published
	// snapshot. Lines seen before under this snapshot come straight from
	// the cache; only first-seen lines pay preprocessing and matching
	// (deduplicated and parallel across the parser's workers).
	met := st.met
	matchStart := time.Now()
	if snap := st.snap.Load(); snap != nil {
		miss, missLines := scratch.miss[:0], scratch.lines[:0]
		for i, line := range lines {
			if id, ok := snap.cachedID(line); ok {
				recs[i].TemplateID = id
			} else {
				miss = append(miss, i)
				missLines = append(missLines, line)
			}
		}
		if len(missLines) > 0 {
			results := snap.matcher.MatchBatch(missLines)
			for j, r := range results {
				recs[miss[j]].TemplateID = r.NodeID
				snap.cacheID(missLines[j], r.NodeID)
			}
		}
		met.cacheHits.Add(int64(len(lines) - len(missLines)))
		met.cacheMisses.Add(int64(len(missLines)))
		scratch.miss, scratch.lines = miss, missLines
	}
	appendStart := time.Now()
	met.matchSeconds.Observe(appendStart.Sub(matchStart).Nanoseconds())
	if _, err := st.store.AppendBatch(now, recs); err != nil {
		return fmt.Errorf("service: ingest %s: %w", topicName, err)
	}
	met.appendSeconds.ObserveDuration(time.Since(appendStart))
	met.ingestLines.Add(int64(len(lines)))
	met.ingestBatches.Inc()
	return s.afterIngest(st, lines, now)
}

// afterIngest feeds the training reservoir (the one brief critical
// section of the ingestion path) and kicks the background trainer when a
// volume or interval trigger fires.
func (s *Service) afterIngest(st *topicState, lines []string, now time.Time) error {
	st.offer(lines)
	if st.sinceLast.Add(int64(len(lines))) >= int64(s.cfg.TrainVolume) ||
		now.Sub(time.Unix(0, st.lastTrain.Load())) >= s.cfg.TrainInterval {
		st.kickTrainer()
	}
	return nil
}

// offer feeds lines into the training reservoir: append until SampleCap,
// then uniform reservoir replacement.
func (st *topicState) offer(lines []string) {
	st.resMu.Lock()
	defer st.resMu.Unlock()
	for _, line := range lines {
		st.offerLocked(line)
	}
}

// offerLocked feeds one line into the reservoir; callers hold resMu.
func (st *topicState) offerLocked(line string) {
	st.bufSeen++
	if len(st.buffer) < st.sampleCap {
		st.buffer = append(st.buffer, line)
		return
	}
	if j := st.rng.Intn(st.bufSeen); j < len(st.buffer) {
		st.buffer[j] = line
	}
}

// Stats reports operational counters for a topic.
type Stats struct {
	Records    int
	Bytes      int64
	Templates  int
	Trainings  int
	ModelBytes int
	Snapshots  int
	// Background-trainer state.
	Training       bool      // a training cycle is running right now
	SinceTrain     int       // records ingested since the last cycle
	ReservoirLines int       // lines buffered for the next cycle
	LastTrainAt    time.Time // when the last cycle ran (topic creation before any)
	LastTrainError string    `json:",omitempty"`
	// Line-cache telemetry: entries in the live generation, cumulative
	// hit/miss counts, and how many times an over-cap generation was
	// evicted wholesale (non-zero = this topic's streams out-card the cap).
	LineCacheEntries   int64
	LineCacheHits      int64
	LineCacheMisses    int64
	LineCacheEvictions int64
	// Query telemetry rollups (details per kind live in /metrics).
	Queries     int64 `json:",omitempty"`
	SlowQueries int64 `json:",omitempty"`
	// WAL telemetry rollups, zero without DataDir (no WAL).
	WALFsyncs          int64 `json:",omitempty"`
	WALPoisonRotations int64 `json:",omitempty"`
	// Degraded-mode state: Degraded is true while the topic's store has
	// entered read-only mode (ingest rejected, queries served);
	// DegradedReason carries the cause. SealRetries counts failed seal
	// attempts that were retried with backoff.
	Degraded       bool   `json:",omitempty"`
	DegradedReason string `json:",omitempty"`
	SealRetries    int64  `json:",omitempty"`
	// Segment-store compression counters and codec; the counts stay
	// zero until the first seal.
	Segments               int     `json:",omitempty"`
	SegmentRecords         int     `json:",omitempty"`
	SegmentRawBytes        int64   `json:",omitempty"`
	SegmentCompressedBytes int64   `json:",omitempty"`
	SegmentRatio           float64 `json:",omitempty"`
	SegmentBlockReads      int64   `json:",omitempty"`
	SegmentBlocksPruned    int64   `json:",omitempty"`
	SegmentReadErrors      int64   `json:",omitempty"`
	SegmentCodec           string  `json:",omitempty"`
}

// TopicStats returns counters for one topic. It takes no topic-wide lock:
// every field reads from atomics, the store's own counters, or the
// published snapshot (whose serialized bytes were cached at train time —
// stats never re-marshal the model).
func (s *Service) TopicStats(topicName string) (Stats, error) {
	st, err := s.topic(topicName)
	if err != nil {
		return Stats{}, err
	}
	stats := Stats{
		Records:     st.store.Len(),
		Bytes:       st.store.Bytes(),
		Trainings:   int(st.trainings.Load()),
		Training:    st.training.Load(),
		SinceTrain:  int(st.sinceLast.Load()),
		LastTrainAt: time.Unix(0, st.lastTrain.Load()),
	}
	if st.internal != nil {
		stats.Snapshots, _ = st.internal.Snapshots()
	}
	st.resMu.Lock()
	stats.ReservoirLines = len(st.buffer)
	st.resMu.Unlock()
	if err := st.trainErr(); err != nil {
		stats.LastTrainError = err.Error()
	}
	if snap := st.snap.Load(); snap != nil {
		stats.Templates = snap.model.Len() + snap.matcher.TemporaryCount()
		stats.ModelBytes = len(snap.modelBytes)
		stats.LineCacheEntries = snap.cacheLen()
	}
	if met := st.met; met != nil {
		stats.LineCacheHits = met.cacheHits.Value()
		stats.LineCacheMisses = met.cacheMisses.Value()
		stats.LineCacheEvictions = met.cacheEvictions.Value()
		stats.Queries = met.queriesTotal()
		stats.SlowQueries = met.slowQueries.Value()
		stats.WALFsyncs = met.store.WALFsyncs.Value()
		stats.WALPoisonRotations = met.store.WALPoisonRotations.Value()
		stats.SegmentBlocksPruned = met.store.BlocksPruned.Value()
		stats.SegmentReadErrors = met.store.SegmentReadErrors.Value()
		stats.SealRetries = met.store.SealRetries.Value()
	}
	if deg, cause := st.store.Degraded(); deg {
		stats.Degraded = true
		if cause != nil {
			stats.DegradedReason = cause.Error()
		}
	}
	sst := st.store.SegmentStats()
	stats.Segments = sst.Segments
	stats.SegmentRecords = sst.SealedRecords
	stats.SegmentRawBytes = sst.RawBytes
	stats.SegmentCompressedBytes = sst.CompressedBytes
	stats.SegmentRatio = sst.Ratio()
	stats.SegmentBlockReads = sst.BlockReads
	stats.SegmentCodec = sst.Codec
	return stats, nil
}

// DegradedTopics reports every topic whose store is currently in
// degraded read-only mode, mapped to the cause. The /readyz endpoint
// serves 503 while the map is non-empty.
func (s *Service) DegradedTopics() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out map[string]string
	for name, st := range s.topics {
		deg, cause := st.store.Degraded()
		if !deg {
			continue
		}
		if out == nil {
			out = make(map[string]string)
		}
		reason := "degraded"
		if cause != nil {
			reason = cause.Error()
		}
		out[name] = reason
	}
	return out
}

// Compact forces the topic's current hot block to seal into a compressed
// segment and waits for the compactor to drain.
func (s *Service) Compact(topicName string) error {
	st, err := s.topic(topicName)
	if err != nil {
		return err
	}
	if err := st.store.Seal(); err != nil {
		return err
	}
	st.store.WaitIdle()
	return st.store.SealError()
}

// TemplateRow is one line of a grouped query result.
type TemplateRow struct {
	// TemplateID is the rolled-up node ID at the query threshold.
	TemplateID uint64
	// Template is the display text, with consecutive wildcards merged
	// (§7's query-result optimization).
	Template string
	// Saturation is the rolled-up node's precision score.
	Saturation float64
	// Count is how many queried records grouped here.
	Count int
	// SampleOffsets holds up to 5 example record offsets.
	SampleOffsets []int64
	// SampleLines holds the raw lines behind SampleOffsets; populated
	// only when the caller asks for samples (HTTP ?samples=1), fetched
	// through the store's batched GetBatch path so offsets in the same
	// sealed block share one payload decompression.
	SampleLines []string `json:",omitempty"`
}

// Query groups a topic's records by template at the given precision
// threshold (≤ 0 uses the default), restricted to records whose
// timestamp lies in tr (the zero TimeRange spans all time). It is the §3
// "Query" path: records carry their most precise template ID; ancestors
// are traversed per threshold without reprocessing any log.
//
// The grouping is metadata-driven: the store answers GroupedCounts from
// its template indexes and sealed-segment metadata (counts, sample
// offsets and time bounds persisted at seal time). With the zero range
// no record payload is read; with a bounded range, sealed blocks outside
// it are pruned by metadata and only blocks the range straddles are
// decompressed. Only the distinct template IDs are rolled up through the
// model, not every record.
func (s *Service) Query(topicName string, threshold float64, tr TimeRange) ([]TemplateRow, error) {
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rows, err := s.queryRows(st, topicName, threshold, tr)
	if err != nil {
		return nil, err
	}
	kind := queryKindGrouped
	if !tr.From.IsZero() || !tr.To.IsZero() {
		kind = queryKindTimeRange
	}
	s.observeQuery(st, kind, tr, start, len(rows))
	return rows, nil
}

// queryRows is the uninstrumented grouped-query body; Query wraps it with
// per-kind latency observation and the slow-query log.
func (s *Service) queryRows(st *topicState, topicName string, threshold float64, tr TimeRange) ([]TemplateRow, error) {
	snap := st.snap.Load()
	if snap == nil {
		return nil, fmt.Errorf("service: topic %q has no trained model yet", topicName)
	}
	if threshold <= 0 {
		threshold = s.cfg.DefaultThreshold
	}
	groups := st.store.GroupedCounts(maxSampleOffsets, tr)
	rows := map[uint64]*TemplateRow{}
	samples := map[uint64][][]int64{}
	for id, g := range groups {
		rowID := id
		var node *core.Node
		if id != 0 {
			if n, err := snap.matcher.TemplateAt(id, threshold); err == nil {
				rowID, node = n.ID, n
			}
		}
		row, ok := rows[rowID]
		if !ok {
			row = &TemplateRow{TemplateID: rowID}
			if node != nil {
				row.Template = snap.displayTemplate(node)
				row.Saturation = node.Saturation
			} else if id == 0 {
				// Records ingested before the first training carry no
				// template (§3: "templates are unavailable for logs
				// before first training completes").
				row.Template = "(unparsed: ingested before first training)"
			} else {
				// A stored ID the current model cannot resolve keeps its
				// ID and its own label: it is not a pre-training record.
				row.Template = "(unresolved template id)"
			}
			rows[rowID] = row
		}
		row.Count += g.Count
		if len(g.Samples) > 0 {
			samples[rowID] = append(samples[rowID], g.Samples)
		}
	}
	out := make([]TemplateRow, 0, len(rows))
	for id, r := range rows {
		r.SampleOffsets = mergeSamples(samples[id], maxSampleOffsets)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].TemplateID < out[j].TemplateID
	})
	return out, nil
}

// mergeSamples merges ascending offset lists and keeps the max smallest —
// the same first-seen samples a full scan would have produced.
func mergeSamples(lists [][]int64, max int) []int64 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		if len(lists[0]) > max {
			return lists[0][:max]
		}
		return lists[0]
	}
	var all []int64
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > max {
		all = all[:max]
	}
	return all
}

// QueryMerged is Query followed by the §7 response-layer optimization:
// rows whose display templates are identical after consecutive-wildcard
// merging — typically variable-length list output from one print statement
// — are grouped into a single row. Users see "users <*>" once; the
// underlying fixed-length templates keep matching fast.
func (s *Service) QueryMerged(topicName string, threshold float64, tr TimeRange) ([]TemplateRow, error) {
	rows, err := s.Query(topicName, threshold, tr)
	if err != nil {
		return nil, err
	}
	byText := make(map[string]*TemplateRow)
	var order []string
	for i := range rows {
		r := rows[i]
		agg, ok := byText[r.Template]
		if !ok {
			cp := r
			byText[r.Template] = &cp
			order = append(order, r.Template)
			continue
		}
		agg.Count += r.Count
		if r.Saturation < agg.Saturation {
			// Report the coarsest member's precision.
			agg.Saturation = r.Saturation
		}
		for _, off := range r.SampleOffsets {
			if len(agg.SampleOffsets) < maxSampleOffsets {
				agg.SampleOffsets = append(agg.SampleOffsets, off)
			}
		}
	}
	out := make([]TemplateRow, 0, len(order))
	for _, text := range order {
		out = append(out, *byText[text])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].TemplateID < out[j].TemplateID
	})
	return out, nil
}

// Search returns the global offsets of records whose whitespace-delimited
// tokens include token exactly, restricted to records whose timestamp
// lies in tr (the zero TimeRange spans all time). Sealed segments
// screen through their bloom filters and metadata time bounds, so
// non-matching blocks are never decompressed.
func (s *Service) Search(topicName, token string, tr TimeRange) ([]int64, error) {
	if token == "" {
		return nil, fmt.Errorf("service: empty search token")
	}
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	offs := st.store.SearchRange(token, tr)
	s.observeQuery(st, queryKindSearch, tr, start, len(offs))
	return offs, nil
}

// ByTemplate returns the global offsets of records whose ingestion-time
// template ID is any of ids, restricted to records whose timestamp lies
// in tr (the zero TimeRange spans all time). Sealed segments whose
// metadata lacks every id — or whose time bounds miss tr — are pruned
// without decompression.
func (s *Service) ByTemplate(topicName string, tr TimeRange, ids ...uint64) ([]int64, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("service: no template IDs given")
	}
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	offs := st.store.ByTemplateRange(tr, ids...)
	s.observeQuery(st, queryKindTemplate, tr, start, len(offs))
	return offs, nil
}

// Records fetches the records at the given global offsets, in input
// order, through the store's batched read path: offsets landing in the
// same sealed block share one payload decompression. It is the query
// sample-fetch surface (TemplateRow.SampleOffsets → raw lines).
func (s *Service) Records(topicName string, offsets []int64) ([]logstore.Record, error) {
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	return st.store.GetBatch(offsets)
}

// fillSampleLines resolves every row's SampleOffsets to raw lines with
// a single batched store read: all rows' offsets concatenate into one
// GetBatch call, so sample offsets landing in the same sealed block
// cost one decompression between them instead of one each.
func (s *Service) fillSampleLines(topicName string, rows []TemplateRow) error {
	var offsets []int64
	for i := range rows {
		offsets = append(offsets, rows[i].SampleOffsets...)
	}
	if len(offsets) == 0 {
		return nil
	}
	recs, err := s.Records(topicName, offsets)
	if err != nil {
		return err
	}
	pos := 0
	for i := range rows {
		n := len(rows[i].SampleOffsets)
		if n == 0 {
			continue
		}
		rows[i].SampleLines = make([]string, n)
		for j := 0; j < n; j++ {
			rows[i].SampleLines[j] = recs[pos+j].Raw
		}
		pos += n
	}
	return nil
}

// Model returns the topic's current model (nil before first training).
func (s *Service) Model(topicName string) (*core.Model, error) {
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	if snap := st.snap.Load(); snap != nil {
		return snap.model, nil
	}
	return nil, nil
}

// Store exposes the topic's record store (read-only use).
func (s *Service) Store(topicName string) (logstore.Store, error) {
	st, err := s.topic(topicName)
	if err != nil {
		return nil, err
	}
	return st.store, nil
}
