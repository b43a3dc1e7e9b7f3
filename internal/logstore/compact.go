package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bytebrain/internal/fsx"
	"bytebrain/internal/segment"
)

// ErrDegraded marks a store that has flipped into degraded read-only
// mode after a disk-full error or a persistent seal failure: appends
// fail fast wrapping this sentinel (check with errors.Is), queries keep
// serving, and a background probe re-arms writes once the disk
// recovers.
var ErrDegraded = errors.New("logstore: store degraded (read-only)")

// isDiskFull reports whether err is the out-of-space condition that
// retrying cannot fix — the signal to degrade immediately instead of
// burning retries.
func isDiskFull(err error) bool {
	return errors.Is(err, fsx.ErrNoSpace)
}

// CompactConfig tunes a CompactingStore.
type CompactConfig struct {
	// Dir, when set, persists sealed segments and a write-ahead log for
	// the hot block there; the store recovers both after a restart.
	// Empty is the in-memory store: no WAL, and sealed segments are kept
	// as compressed blobs in RAM (a large win over raw lines).
	Dir string
	// SegmentBytes seals the hot block once its raw payload reaches this
	// size (default 4 MiB).
	SegmentBytes int64
	// Codec compresses sealed payloads; the zero value is
	// segment.CodecNone.
	Codec segment.Codec
	// Opts carries the metrics bundle and WAL fsync policy.
	Opts StoreOptions
}

func (c CompactConfig) withDefaults() CompactConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	c.Opts = c.Opts.withMetrics()
	return c
}

const (
	sealedPrefix = "seg-"
	sealedSuffix = ".bbsg"
	walPrefix    = "wal-"
	walSuffix    = ".log"
	// legacyPrefix/legacySuffix name the record files of the retired
	// plain disk store (segment-NNNNNN.log). Nothing writes them any
	// more; open paths recognise them only to refuse the directory
	// instead of hiding its records behind fresh offsets.
	legacyPrefix = "segment-"
	legacySuffix = ".log"
	// shardDirPrefix names the per-shard subdirectories (shard-NNN) of
	// the retired sharded topic layout; like the legacy record files,
	// they are recognised only to refuse the directory.
	shardDirPrefix = "shard-"
	// maxQueuedSeals full blocks may wait for the sealer before
	// AppendBatch waits too; the writer is faster than one sealer.
	maxQueuedSeals = 2
)

// CompactingStore is the hybrid topic store: hot writes land in an
// in-memory topic block (template-indexed, immediately queryable), and a
// background compactor seals full blocks into immutable template-aware
// compressed segments. Every query is one fan-out over the blocks, hot
// and sealed alike (see block and fanOut): sealed segments push the
// predicate into their metadata — template, bloom and time bounds — so
// non-matching blocks are never decompressed.
//
// With Dir configured, hot appends also go to a per-block write-ahead
// log; a crash loses at most the unflushed WAL tail, and recovery
// replays sealed segments then surviving WALs.
type CompactingStore struct {
	name string
	cfg  CompactConfig
	m    *Metrics // never nil (withDefaults); fields may be
	fs   fsx.FS   // never nil (withDefaults)

	mu               sync.Mutex
	blocks           []*compactBlock
	closed           bool
	batchesSinceSync int  // WAL commits since the last policy fsync
	walDirty         bool // WAL bytes written since the last sync

	sealCh     chan struct{}
	doneCh     chan struct{}
	sealed     *sync.Cond // on mu; broadcast after every seal attempt, degrade and close
	sealerGone bool       // the seal loop has exited; nothing waits on it
	sealWG     sync.WaitGroup
	flushWG    sync.WaitGroup
	idleCh     chan struct{} // closed and replaced whenever seal work finishes
	sealErr    error         // most recent seal/rotation failure; cleared by Seal

	degraded    bool  // read-only mode: appends fail fast with ErrDegraded
	degradedErr error // what drove the store into degraded mode
}

// compactBlock is one contiguous offset range of the topic, either still
// hot (in-memory topic) or sealed (segment reader).
type compactBlock struct {
	idx     int // monotonic block number; names the files
	hot     *topic
	sealing bool
	seg     *segment.Reader
	wal     *walWriter
	walPath string // set for any block backed by a WAL file, even when
	// recovered without a live writer; removed after a successful seal
}

// view returns the block as the read path sees it; callers hold the
// store lock, since the sealer swaps hot for seg under it.
func (b *compactBlock) view() block {
	if b.seg != nil {
		return b.seg
	}
	return b.hot
}

// OpenCompacting opens a compacting store, recovering on-disk state when
// cfg.Dir is set: sealed segments load by metadata, leftover WALs replay
// into hot blocks (all but the newest re-queued for sealing), a torn WAL
// tail from a crash is truncated, and orphaned segment temp files are
// removed.
func OpenCompacting(name string, cfg CompactConfig) (*CompactingStore, error) {
	cfg = cfg.withDefaults()
	s := &CompactingStore{
		name:   name,
		cfg:    cfg,
		m:      cfg.Opts.Metrics,
		fs:     cfg.Opts.FS,
		sealCh: make(chan struct{}, 1),
		doneCh: make(chan struct{}),
		idleCh: make(chan struct{}),
	}
	s.sealed = sync.NewCond(&s.mu)
	if cfg.Dir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if len(s.blocks) == 0 || s.blocks[len(s.blocks)-1].hot == nil || s.blocks[len(s.blocks)-1].sealing {
		if err := s.startHotLocked(); err != nil {
			return nil, err
		}
	}
	s.sealWG.Add(1)
	go s.sealLoop()
	if cfg.Dir != "" && cfg.Opts.FsyncInterval > 0 {
		s.flushWG.Add(1)
		go s.flushLoop()
	}
	s.kickSealer()
	return s, nil
}

// flushLoop is the interval half of the WAL fsync policy: every
// FsyncInterval it syncs the live hot WAL if appends landed since the
// last sync, so light traffic is never more than one interval from
// durability without paying an fsync per batch.
func (s *CompactingStore) flushLoop() {
	defer s.flushWG.Done()
	t := time.NewTicker(s.cfg.Opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.doneCh:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.closed || !s.walDirty {
			s.mu.Unlock()
			continue
		}
		b := s.blocks[len(s.blocks)-1]
		if b.hot == nil || b.sealing || b.wal == nil {
			s.mu.Unlock()
			continue
		}
		s.walDirty = false
		if err := b.wal.flush(); err != nil {
			// A WAL that failed to sync must take no further bytes; seal
			// the block from memory exactly like a failed append.
			b.wal.poison(err)
			s.poisonRotateLocked(b)
			if isDiskFull(err) {
				s.setDegradedLocked(err)
			}
		}
		s.mu.Unlock()
	}
}

// maybeFsyncLocked is the count half of the WAL fsync policy: after every
// FsyncEveryBatches successful WAL commits, the live hot WAL is synced
// inline.
func (s *CompactingStore) maybeFsyncLocked() {
	if s.cfg.Opts.FsyncEveryBatches <= 0 {
		return
	}
	s.batchesSinceSync++
	if s.batchesSinceSync < s.cfg.Opts.FsyncEveryBatches {
		return
	}
	s.batchesSinceSync = 0
	b := s.blocks[len(s.blocks)-1]
	if b.hot == nil || b.sealing || b.wal == nil {
		return
	}
	s.walDirty = false
	if err := b.wal.flush(); err != nil {
		b.wal.poison(err)
		s.poisonRotateLocked(b)
		if isDiskFull(err) {
			s.setDegradedLocked(err)
		}
	}
}

// recover rebuilds the block list from cfg.Dir.
func (s *CompactingStore) recover() error {
	if err := s.fs.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("logstore: compacting open %s: %w", s.cfg.Dir, err)
	}
	entries, err := s.fs.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("logstore: compacting list %s: %w", s.cfg.Dir, err)
	}
	segIdx := map[int]string{}
	walIdx := map[int]string{}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() {
			if strings.HasPrefix(n, shardDirPrefix) {
				// A shard subdirectory of the retired sharded layout.
				// Ignoring it would hide every record inside — refuse
				// instead of losing data.
				return fmt.Errorf("logstore: compacting open %s: found shard directory %s; this build no longer reads sharded topic layouts (re-ingest the topic into a fresh data dir, or open it with a release that still has the sharded store)", s.cfg.Dir, n)
			}
			continue
		}
		switch {
		case strings.HasPrefix(n, legacyPrefix) && strings.HasSuffix(n, legacySuffix):
			// A record file of the retired plain disk store (DiskTopic).
			// Silently ignoring it would hide all those records behind
			// fresh offsets — refuse instead of losing data.
			return fmt.Errorf("logstore: compacting open %s: found legacy disk-topic file %s; this build no longer reads that format (re-ingest the topic into a fresh data dir, or open it with a release that still has the plain disk store)", s.cfg.Dir, n)
		case strings.HasSuffix(n, segment.TmpSuffix):
			// Torn segment write from a crash; the WAL still has the data.
			if err := s.fs.Remove(filepath.Join(s.cfg.Dir, n)); err != nil {
				return fmt.Errorf("logstore: compacting recover: remove torn segment %s: %w", n, err)
			}
		case strings.HasPrefix(n, sealedPrefix) && strings.HasSuffix(n, sealedSuffix):
			var i int
			if _, err := fmt.Sscanf(n, sealedPrefix+"%06d"+sealedSuffix, &i); err == nil {
				segIdx[i] = filepath.Join(s.cfg.Dir, n)
			}
		case strings.HasPrefix(n, walPrefix) && strings.HasSuffix(n, walSuffix):
			var i int
			if _, err := fmt.Sscanf(n, walPrefix+"%06d"+walSuffix, &i); err == nil {
				walIdx[i] = filepath.Join(s.cfg.Dir, n)
			}
		}
	}
	var idxs []int
	for i := range segIdx {
		idxs = append(idxs, i)
	}
	for i := range walIdx {
		if _, dup := segIdx[i]; !dup {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	var next int64
	for _, i := range idxs {
		if path, ok := segIdx[i]; ok {
			r, err := segment.OpenFileFS(s.fs, path)
			if err != nil && walIdx[i] != "" {
				// Unreadable segment but its WAL survived (crash hit
				// between segment rename and WAL delete): move the bad
				// file aside and recover the block from the WAL below. A
				// failed quarantine must abort recovery — the bad file
				// would shadow the WAL again on the next open.
				if rerr := s.fs.Rename(path, path+".bad"); rerr != nil {
					return fmt.Errorf("logstore: compacting recover: quarantine %s: %w", filepath.Base(path), rerr)
				}
			} else if err != nil {
				return fmt.Errorf("logstore: compacting recover: %w", err)
			} else {
				if r.FirstOffset() != next {
					return fmt.Errorf("logstore: compacting recover: segment %d starts at offset %d, want %d",
						i, r.FirstOffset(), next)
				}
				// The segment is good; its same-index WAL (if the crash
				// left one) is now redundant.
				if wal := walIdx[i]; wal != "" {
					if err := s.fs.Remove(wal); err != nil {
						return fmt.Errorf("logstore: compacting recover: remove redundant wal %s: %w", filepath.Base(wal), err)
					}
				}
				s.blocks = append(s.blocks, &compactBlock{idx: i, seg: r})
				s.m.RecoveredSegments.Inc()
				next += int64(r.Count())
				continue
			}
		}
		// WAL-only block: replay it into a hot topic. Recovered blocks
		// re-queue for sealing, except that the newest one may resume
		// as the live hot block (see below).
		hot := newTopic(next, 0)
		if err := replayWAL(s.fs, walIdx[i], hot, s.m); err != nil {
			return err
		}
		if hot.Count() == 0 {
			if err := s.fs.Remove(walIdx[i]); err != nil {
				return fmt.Errorf("logstore: compacting recover: remove empty wal %s: %w", filepath.Base(walIdx[i]), err)
			}
			continue
		}
		s.blocks = append(s.blocks, &compactBlock{idx: i, hot: hot, sealing: true, walPath: walIdx[i]})
		next += int64(hot.Count())
	}
	// The newest block, when replayed from a WAL and still under the
	// seal threshold, resumes as the live hot block instead of being
	// force-sealed — otherwise every restart under light traffic would
	// mint an undersized segment.
	if n := len(s.blocks); n > 0 {
		last := s.blocks[n-1]
		if last.hot != nil && last.hot.RawBytes() < s.cfg.SegmentBytes {
			w, err := openWAL(s.fs, last.walPath, s.m)
			if err != nil {
				return err
			}
			last.wal = w
			last.sealing = false
		}
	}
	return nil
}

// startHotLocked appends a fresh hot block (with WAL when persistent),
// its record slice sized for as many records as the previous block
// holds, so a block of a steady stream fills without regrowing.
func (s *CompactingStore) startHotLocked() error {
	idx, first, capacity := 0, int64(0), 0
	if n := len(s.blocks); n > 0 {
		last := s.blocks[n-1].view()
		idx = s.blocks[n-1].idx + 1
		first, capacity = end(last), last.Count()
	}
	b := &compactBlock{idx: idx, hot: newTopic(first, capacity)}
	if s.cfg.Dir != "" {
		path := filepath.Join(s.cfg.Dir, fmt.Sprintf("%s%06d%s", walPrefix, idx, walSuffix))
		w, err := openWAL(s.fs, path, s.m)
		if err != nil {
			if isDiskFull(err) {
				s.setDegradedLocked(err)
			}
			return err
		}
		b.wal = w
		b.walPath = path
	}
	s.blocks = append(s.blocks, b)
	return nil
}

// AppendBatch implements Store: the batch lands under ONE store-lock
// acquisition with ONE WAL poison check per block it touches, its records
// encoded back-to-back into the WAL's buffered writer (group commit).
// A block rotates mid-batch right after the record whose bytes push it
// over the seal threshold, so the WAL files and block layout depend only
// on the record sequence, never on how callers partition it into batches.
//
// WAL first: if the durability write fails, the failing record is not
// admitted to the in-memory index either, so a caller retry cannot create
// a phantom duplicate. The failure leaves a torn record at the WAL tail,
// and replay truncates everything from the tear on — so the block must
// never write another byte to this WAL, or later admitted records would be
// silently discarded on recovery. poisonRotateLocked retires the block
// (sealing rebuilds durability from memory; the fully-written prefix of
// the batch is admitted, the rest fails) and subsequent appends land in a
// fresh WAL.
//
// While maxQueuedSeals full blocks wait for the sealer, the call first
// waits for one of them to seal, so hot memory stays bounded.
func (s *CompactingStore) AppendBatch(ts time.Time, recs []BatchRecord) (int64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitSealBacklogLocked()
	if s.closed {
		return 0, errors.New("logstore: compacting store closed")
	}
	if s.degraded {
		return 0, fmt.Errorf("logstore: append %s: %w (cause: %v)", s.name, ErrDegraded, s.degradedErr)
	}
	s.m.BatchRecords.Observe(int64(len(recs)))
	b := s.blocks[len(s.blocks)-1]
	if b.hot == nil || b.sealing {
		// A failed rotation path can leave the tail block without a live
		// hot target; restore the invariant instead of panicking.
		if err := s.startHotLocked(); err != nil {
			return 0, err
		}
		b = s.blocks[len(s.blocks)-1]
	}
	first := end(b.hot)
	for i := 0; i < len(recs); {
		// Chunk: records that fit the current block, up to and including
		// the one whose bytes push it over the seal threshold.
		bytes := b.hot.RawBytes()
		j := i
		for j < len(recs) {
			bytes += int64(len(recs[j].Raw))
			j++
			if bytes >= s.cfg.SegmentBytes {
				break
			}
		}
		chunk := recs[i:j]
		if b.wal != nil {
			n, err := b.wal.appendBatch(ts, chunk)
			if n > 0 {
				b.hot.appendBatch(ts, chunk[:n])
				s.walDirty = true
			}
			if err != nil {
				s.poisonRotateLocked(b)
				if isDiskFull(err) {
					s.setDegradedLocked(err)
				}
				return first, fmt.Errorf("logstore: wal append: %w", err)
			}
		} else {
			b.hot.appendBatch(ts, chunk)
		}
		i = j
		if b.hot.RawBytes() >= s.cfg.SegmentBytes {
			// Only hand the block to the sealer once its successor exists;
			// if rotation fails the block simply keeps absorbing appends
			// (correct, just uncompacted) and the error is surfaced via
			// SealError rather than failing an append that already landed.
			if err := s.startHotLocked(); err != nil {
				s.sealErr = err
			} else {
				b.sealing = true
				s.kickSealer()
				b = s.blocks[len(s.blocks)-1]
			}
		}
	}
	s.maybeFsyncLocked()
	return first, nil
}

// poisonRotateLocked retires a block whose WAL append just failed: the
// WAL now ends in a torn record, so the block must stop writing to it. A
// block holding admitted records is handed to the sealer — a successful
// seal persists them as a segment built from the in-memory index, after
// which the poisoned WAL is deleted; until then (or after a crash) replay
// recovers every admitted record, truncating only the torn tail. An empty
// block is dropped outright together with its torn WAL. Either way a
// fresh hot block with a fresh WAL takes over. If rotation itself fails,
// the poisoned block stays hot and every append fails fast (retrying the
// rotation) rather than risking silent data loss.
func (s *CompactingStore) poisonRotateLocked(b *compactBlock) {
	s.m.WALPoisonRotations.Inc()
	if err := s.startHotLocked(); err != nil {
		s.sealErr = err
		return
	}
	if b.hot.Count() > 0 {
		b.sealing = true
		s.kickSealer()
		return
	}
	// Nothing was admitted to the block: discard it and its torn WAL.
	// Close/remove failures here cannot lose data (the WAL is already
	// poisoned and holds no admitted records) and recovery deletes an
	// empty WAL on the next open, so this teardown is best-effort.
	//bbvet:ignore errflow discarding an empty poisoned WAL; nothing admitted, recovery re-deletes it
	b.wal.close()
	b.wal = nil
	if b.walPath != "" {
		//bbvet:ignore errflow same empty poisoned WAL as above; remove is best-effort
		s.fs.Remove(b.walPath)
		b.walPath = ""
	}
	for i, bb := range s.blocks {
		if bb == b {
			s.blocks = append(s.blocks[:i:i], s.blocks[i+1:]...)
			break
		}
	}
}

// waitSealBacklogLocked waits while the seal backlog is full and the
// store can still take appends, and counts the wait and its length.
func (s *CompactingStore) waitSealBacklogLocked() {
	var start time.Time
	for !s.closed && !s.degraded && s.sealBacklogLocked() {
		if start.IsZero() {
			start = time.Now()
		}
		s.sealed.Wait()
	}
	if !start.IsZero() {
		s.m.SealWaits.Inc()
		s.m.SealWaitSeconds.ObserveDuration(time.Since(start))
	}
}

// sealBacklogLocked reports whether maxQueuedSeals full blocks wait for
// a seal loop that is still running.
func (s *CompactingStore) sealBacklogLocked() bool {
	queued := 0
	for i := len(s.blocks) - 1; i >= 0 && s.blocks[i].hot != nil; i-- {
		if s.blocks[i].sealing {
			queued++
		}
	}
	return !s.sealerGone && queued >= maxQueuedSeals
}

func (s *CompactingStore) kickSealer() {
	select {
	case s.sealCh <- struct{}{}:
	default:
	}
}

// sealLoop is the background compactor: it converts seal-pending hot
// blocks into compressed segments, oldest first, then swaps them into
// the block list. Seal failures retry with capped exponential backoff;
// disk-full or retry exhaustion degrades the store to read-only, after
// which the loop doubles as the recovery probe, periodically re-trying
// the pending work (plus a scratch probe write) until the disk heals.
func (s *CompactingStore) sealLoop() {
	defer s.sealWG.Done()
	defer func() {
		// Nothing drains the queue any more: release waiting appends.
		s.mu.Lock()
		s.sealerGone = true
		s.sealed.Broadcast()
		s.mu.Unlock()
	}()
	probe := time.NewTimer(s.cfg.Opts.ProbeInterval)
	probe.Stop() // armed only while degraded
	defer probe.Stop()
	for {
		select {
		case <-s.doneCh:
			// Final drain on clean shutdown: a block already marked for
			// sealing must not be abandoned — in particular a poisoned-WAL
			// block, whose admitted records may exist nowhere durable
			// until its seal completes (the select races Close's doneCh
			// against the kick the poisoning append sent).
			s.remarkFailed()
			s.drainSeals(true)
			return
		case <-s.sealCh:
		case <-probe.C:
			s.probeRecovery()
		}
		s.drainSeals(false)
		if deg, _ := s.Degraded(); deg {
			probe.Reset(s.cfg.Opts.ProbeInterval)
		}
		s.mu.Lock()
		close(s.idleCh)
		s.idleCh = make(chan struct{})
		s.mu.Unlock()
	}
}

// drainSeals seals every pending block, oldest first. A failed attempt
// is retried up to SealMaxRetries times with capped exponential backoff
// (the block keeps serving from memory, and sealing stays cleared
// during the backoff so WaitIdle/Close cannot hang on the retry timer);
// a disk-full error or retry exhaustion degrades the store instead.
// During the final shutdown drain the backoff cannot watch doneCh (it
// is already closed), so it sleeps unconditionally — bounded by
// SealMaxRetries.
func (s *CompactingStore) drainSeals(final bool) {
	fails := 0
	for {
		attempted, err := s.sealOne()
		if !attempted {
			return
		}
		if err == nil {
			fails = 0
			continue
		}
		fails++
		if isDiskFull(err) || fails > s.cfg.Opts.SealMaxRetries {
			s.setDegraded(err)
			return
		}
		s.m.SealRetries.Inc()
		d := s.cfg.Opts.SealRetryBase << (fails - 1)
		if d > s.cfg.Opts.SealRetryMax {
			d = s.cfg.Opts.SealRetryMax
		}
		if final {
			time.Sleep(d)
		} else {
			select {
			case <-time.After(d):
			case <-s.doneCh:
				// Shutdown interrupts the backoff; the doneCh branch of
				// sealLoop runs the final drain, which re-marks the block.
				return
			}
		}
		s.remarkFailed()
	}
}

// remarkFailed re-queues blocks whose seal attempt failed (sealing was
// cleared to keep WaitIdle honest) so the next drain retries them.
func (s *CompactingStore) remarkFailed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) == 0 {
		return
	}
	for _, b := range s.blocks[:len(s.blocks)-1] {
		if b.hot != nil && !b.sealing {
			b.sealing = true
		}
	}
}

// setDegraded flips the store into degraded read-only mode.
func (s *CompactingStore) setDegraded(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setDegradedLocked(err)
}

func (s *CompactingStore) setDegradedLocked(err error) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.degradedErr = err
	s.m.DegradedEnters.Inc()
	s.sealed.Broadcast() // waiting appends now fail fast
	// Wake the seal loop so it arms the recovery probe timer.
	s.kickSealer()
}

// Degraded implements Store.
func (s *CompactingStore) Degraded() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degradedErr
}

// probeRecovery is the degraded store's way back: re-try every pending
// seal, rotate a poisoned hot WAL onto a fresh file, and prove the disk
// writable with a scratch file. Only when all of it succeeds does the
// store re-open for appends; any failure leaves it degraded and the
// caller re-arms the probe timer.
func (s *CompactingStore) probeRecovery() {
	if deg, _ := s.Degraded(); !deg {
		return
	}
	// Retry the backlog first: these writes are the real probe — if the
	// pending segments land, the disk is back.
	s.remarkFailed()
	for {
		attempted, err := s.sealOne()
		if err != nil {
			return // still sick; stay degraded
		}
		if !attempted {
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A tail block left with a poisoned (or failed-to-open) WAL must
	// rotate before appends resume, or the first append would fail fast
	// on the poison and bounce the store straight back into degraded.
	b := s.blocks[len(s.blocks)-1]
	switch {
	case b.hot == nil || b.sealing:
		if err := s.startHotLocked(); err != nil {
			return
		}
	case b.wal != nil && b.wal.poisoned():
		s.poisonRotateLocked(b)
		tail := s.blocks[len(s.blocks)-1]
		if tail.hot == nil || tail.sealing || (s.cfg.Dir != "" && tail.wal == nil) {
			return // rotation failed; stay degraded
		}
	case b.wal == nil && s.cfg.Dir != "":
		// Hot records with no WAL at all (a failed rotation path): get a
		// fresh durable tail and persist this block from memory.
		if err := s.startHotLocked(); err != nil {
			return
		}
		if b.hot.Count() > 0 {
			b.sealing = true
		}
	}
	if err := s.probeWriteLocked(); err != nil {
		return
	}
	s.degraded = false
	s.degradedErr = nil
	s.kickSealer() // the rotation above may have queued a seal
}

// probeWriteLocked proves the data directory writable: create, write,
// fsync, and remove a scratch file. Memory-only stores trivially pass.
func (s *CompactingStore) probeWriteLocked() error {
	if s.cfg.Dir == "" {
		return nil
	}
	path := filepath.Join(s.cfg.Dir, ".probe")
	f, err := s.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("bytebrain disk probe\n")); err != nil {
		f.Close()
		s.fs.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(path)
		return err
	}
	return s.fs.Remove(path)
}

// sealableLocked returns the block the compactor may seal next, or nil.
// Only the oldest unsealed block qualifies: segment files on disk must
// stay a contiguous prefix of the block sequence, or a crash after an
// out-of-order seal would leave an offset gap recovery cannot bridge. A
// block whose seal failed (sealing cleared) therefore blocks newer ones
// until Seal re-marks it.
func (s *CompactingStore) sealableLocked() *compactBlock {
	for _, b := range s.blocks {
		if b.hot == nil {
			continue // already sealed
		}
		if b.sealing {
			return b
		}
		return nil
	}
	return nil
}

// sealOne seals the oldest pending block. attempted is false when no
// block is pending; err carries a failed attempt (the block stays hot,
// its sealing flag cleared, and sealErr records the failure — the
// caller decides between retry and degrade).
func (s *CompactingStore) sealOne() (attempted bool, _ error) {
	s.mu.Lock()
	b := s.sealableLocked()
	if b == nil {
		s.mu.Unlock()
		return false, nil
	}
	s.mu.Unlock()

	// The block no longer receives appends; encode its records in place,
	// without the store lock, so queries and hot writes continue during
	// compression.
	start := time.Now()
	reader, err := s.sealRecords(b, b.hot.all())
	s.m.SealSeconds.ObserveDuration(time.Since(start))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed.Broadcast() // success or failure (sealing cleared), the backlog shrank
	if err != nil {
		// Keep serving the block from memory and record the failure.
		// sealing is cleared so WaitIdle and the drain loop do not hang
		// on it; drainSeals (retry/backoff) and Seal (the forced
		// compaction path) re-mark failed blocks for another attempt.
		b.sealing = false
		s.sealErr = err
		return true, err
	}
	s.m.Seals.Inc()
	b.seg = reader
	b.hot = nil
	if b.wal != nil {
		// The segment is durable, so the WAL is redundant — but a close
		// failure can leak the descriptor and block the delete below, so
		// it is surfaced, not dropped.
		if err := b.wal.close(); err != nil {
			s.sealErr = fmt.Errorf("logstore: close sealed block %d wal: %w", b.idx, err)
		}
		b.wal = nil
	}
	if b.walPath != "" {
		// A lingering redundant WAL is cleaned up by recovery, but a
		// remove failure there aborts the next open — surface it now
		// while the operator can act on it.
		if err := s.fs.Remove(b.walPath); err != nil {
			s.sealErr = fmt.Errorf("logstore: remove sealed block %d wal: %w", b.idx, err)
		}
		b.walPath = ""
	}
	return true, nil
}

// sealRecords encodes one block and, when persistent, writes it
// atomically to disk.
func (s *CompactingStore) sealRecords(b *compactBlock, recs []Record) (*segment.Reader, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("logstore: seal empty block %d", b.idx)
	}
	if b.wal != nil && !b.wal.poisoned() {
		// A poisoned WAL cannot (and must not) flush; the segment built
		// from the in-memory index below becomes the durable copy.
		if err := b.wal.flush(); err != nil {
			return nil, err
		}
	}
	blob, _, err := segment.Encode(recs, s.cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("logstore: seal block %d: %w", b.idx, err)
	}
	if s.cfg.Dir != "" {
		path := filepath.Join(s.cfg.Dir, fmt.Sprintf("%s%06d%s", sealedPrefix, b.idx, sealedSuffix))
		if err := segment.WriteFileFS(s.fs, path, blob); err != nil {
			return nil, err
		}
	}
	return segment.Open(blob)
}

// Seal marks the current hot block for compaction regardless of size (a
// no-op when it is empty), re-marks any block whose earlier seal attempt
// failed, clears the sticky error so SealError reflects this attempt,
// and returns without waiting.
func (s *CompactingStore) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("logstore: compacting store closed")
	}
	s.sealErr = nil
	// Retry blocks left hot by a failed seal (everything but the last
	// block should be sealed or seal-pending).
	for _, b := range s.blocks[:len(s.blocks)-1] {
		if b.hot != nil && !b.sealing {
			b.sealing = true
		}
	}
	b := s.blocks[len(s.blocks)-1]
	switch {
	case b.hot == nil || b.sealing:
		// Defensive: a failed rotation path can leave the tail block
		// sealed or seal-pending with no live hot successor; restore the
		// append invariant instead of dereferencing a nil hot topic.
		if err := s.startHotLocked(); err != nil {
			s.kickSealer()
			return err
		}
	case b.hot.Count() > 0:
		if err := s.startHotLocked(); err != nil {
			s.kickSealer()
			return err
		}
		b.sealing = true
	}
	s.kickSealer()
	return nil
}

// WaitIdle blocks until no block is pending compaction — test and
// benchmark plumbing for the otherwise-asynchronous compactor.
func (s *CompactingStore) WaitIdle() {
	for {
		s.mu.Lock()
		pending := s.sealableLocked() != nil
		ch := s.idleCh
		s.mu.Unlock()
		if !pending {
			return
		}
		s.kickSealer()
		select {
		case <-ch:
		case <-s.doneCh:
			return
		}
	}
}

// SealError returns the most recent background compaction or rotation
// failure, if any. Blocks that fail to seal keep serving from memory;
// Seal clears the error before retrying them.
func (s *CompactingStore) SealError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealErr
}

// block is one contiguous span of the topic's offsets as the read path
// sees it: the hot topic or a sealed segment.Reader, whose …Info methods
// set the shape. Each answer also reports whether it decoded a sealed
// payload; false from a sealed block means its metadata alone answered.
type block interface {
	FirstOffset() int64
	Count() int
	RawBytes() int64
	RecordsAt(offsets []int64) ([]Record, error)
	SearchRangeInfo(token string, from, to time.Time) ([]int64, bool, error)
	ByTemplateRangeInfo(from, to time.Time, ids ...uint64) ([]int64, bool, error)
	TemplateMetasRangeInfo(from, to time.Time) ([]segment.TemplateMeta, bool, error)
}

var (
	_ block = (*topic)(nil)
	_ block = (*segment.Reader)(nil)
)

// end returns the offset one past b's last record.
func end(b block) int64 { return b.FirstOffset() + int64(b.Count()) }

// snapshot returns the current blocks, oldest first. A sealed reader is
// immutable, and a hot topic stays readable after its block seals, so
// the views stay valid once the lock is released.
func (s *CompactingStore) snapshot() []block {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]block, len(s.blocks))
	for i, b := range s.blocks {
		out[i] = b.view()
	}
	return out
}

// fanOut is the read path: it asks each of blocks one question, oldest
// first, and keeps the pushdown accounting in one place. ask merges the
// block's answer and returns its decoded flag and error. Only sealed
// blocks count: one answered from metadata alone in BlocksPruned, one
// whose payload failed to decode in SegmentReadErrors. Blocks after a
// failure are still asked; fanOut returns the first error.
func (s *CompactingStore) fanOut(blocks []block, ask func(block) (decoded bool, err error)) error {
	var first error
	for _, b := range blocks {
		decoded, err := ask(b)
		if _, hot := b.(*topic); hot {
			continue
		}
		switch {
		case err != nil:
			s.m.SegmentReadErrors.Inc()
			if first == nil {
				first = err
			}
		case !decoded:
			s.m.BlocksPruned.Inc()
		}
	}
	return first
}

// Len implements Store.
func (s *CompactingStore) Len() int {
	n := 0
	for _, b := range s.snapshot() {
		n += b.Count()
	}
	return n
}

// Bytes implements Store: the raw payload size the topic represents
// (sealed blocks report the pre-compression size from metadata).
func (s *CompactingStore) Bytes() int64 {
	var n int64
	for _, b := range s.snapshot() {
		n += b.RawBytes()
	}
	return n
}

// GetBatch implements Store. Offsets are grouped per block first and only
// the blocks they touch are asked, so a sealed block touched by many
// offsets pays exactly one payload decompression instead of one per
// offset — the win the query sample-fetch path exists for — and builds
// only the lines asked for.
func (s *CompactingStore) GetBatch(offsets []int64) ([]Record, error) {
	if len(offsets) == 0 {
		return nil, nil
	}
	blocks := s.snapshot()
	var touched []block
	groups := make(map[block][]int, 1) // block → positions in offsets
	for pos, off := range offsets {
		// Blocks are offset-ordered: binary search the owning block.
		bi := sort.Search(len(blocks), func(i int) bool { return end(blocks[i]) > off })
		if bi == len(blocks) || off < blocks[bi].FirstOffset() {
			return nil, fmt.Errorf("logstore: offset %d out of range [0,%d)", off, s.Len())
		}
		b := blocks[bi]
		if groups[b] == nil {
			touched = append(touched, b)
		}
		groups[b] = append(groups[b], pos)
	}
	out := make([]Record, len(offsets))
	err := s.fanOut(touched, func(b block) (bool, error) {
		positions := groups[b]
		offs := make([]int64, len(positions))
		for i, pos := range positions {
			offs[i] = offsets[pos]
		}
		recs, err := b.RecordsAt(offs)
		if err != nil {
			return true, err
		}
		for i, pos := range positions {
			out[pos] = recs[i]
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ByTemplateRange implements Store. Sealed blocks prune on metadata
// alone when no queried template is present, when the block's time
// bounds miss tr, or when every queried template's own time bounds miss
// it; only surviving blocks decompress.
func (s *CompactingStore) ByTemplateRange(tr TimeRange, ids ...uint64) []int64 {
	var out []int64
	if tr.Empty() {
		return out
	}
	s.fanOut(s.snapshot(), func(b block) (bool, error) {
		offs, decoded, err := b.ByTemplateRangeInfo(tr.From, tr.To, ids...)
		out = append(out, offs...)
		return decoded, err
	})
	return out
}

// GroupedCounts implements Store, answered from sealed-segment metadata
// (per-template counts, sample offsets and time bounds persisted at seal
// time) plus the hot template index. With the zero TimeRange no payload
// is ever decompressed; with a bounded range, blocks outside it are
// pruned by their metadata time bounds and only blocks the range
// straddles decode — and within those, only templates whose own time
// bounds straddle the boundary. Blocks are visited in offset order, so
// samples accumulate ascending and the earliest offsets win.
func (s *CompactingStore) GroupedCounts(maxSamples int, tr TimeRange) map[uint64]TemplateGroup {
	out := make(map[uint64]TemplateGroup)
	if tr.Empty() {
		return out
	}
	s.fanOut(s.snapshot(), func(b block) (bool, error) {
		metas, decoded, err := b.TemplateMetasRangeInfo(tr.From, tr.To)
		for _, tm := range metas {
			g := out[tm.ID]
			g.Count += tm.Count
			if n := min(maxSamples-len(g.Samples), len(tm.Samples)); n > 0 {
				g.Samples = append(g.Samples, tm.Samples[:n]...)
			}
			out[tm.ID] = g
		}
		return decoded, err
	})
	return out
}

// TemplateCounts implements Store: GroupedCounts without samples, with
// the same range pushdown.
func (s *CompactingStore) TemplateCounts(tr TimeRange) map[uint64]int {
	out := make(map[uint64]int)
	for id, g := range s.GroupedCounts(0, tr) {
		out[id] = g.Count
	}
	return out
}

// SearchRange implements Store. Sealed blocks prune on metadata alone
// when the bloom filter rules the token out or the block's time bounds
// miss tr; only surviving blocks decompress.
func (s *CompactingStore) SearchRange(token string, tr TimeRange) []int64 {
	var out []int64
	if tr.Empty() {
		return out
	}
	s.fanOut(s.snapshot(), func(b block) (bool, error) {
		offs, decoded, err := b.SearchRangeInfo(token, tr.From, tr.To)
		out = append(out, offs...)
		return decoded, err
	})
	return out
}

// SegmentStats reports the compression state of the store.
type SegmentStats struct {
	// Segments is the sealed segment count.
	Segments int
	// SealedRecords is the record count inside sealed segments.
	SealedRecords int
	// HotRecords is the record count still in memory (hot + pending).
	HotRecords int
	// RawBytes is the pre-compression payload size of sealed segments.
	RawBytes int64
	// CompressedBytes is their encoded on-disk/in-memory size.
	CompressedBytes int64
	// BlockReads counts payload decompressions across all sealed
	// segments — the price queries actually paid.
	BlockReads int64
	// Codec is the configured payload codec.
	Codec string
}

// Ratio returns CompressedBytes/RawBytes (0 when nothing is sealed).
func (st SegmentStats) Ratio() float64 {
	if st.RawBytes == 0 {
		return 0
	}
	return float64(st.CompressedBytes) / float64(st.RawBytes)
}

// SegmentStats returns current compression counters.
func (s *CompactingStore) SegmentStats() SegmentStats {
	st := SegmentStats{Codec: s.cfg.Codec.String()}
	for _, b := range s.snapshot() {
		seg, ok := b.(*segment.Reader)
		if !ok {
			st.HotRecords += b.Count()
			continue
		}
		st.Segments++
		st.SealedRecords += seg.Count()
		st.RawBytes += seg.RawBytes()
		st.CompressedBytes += seg.EncodedBytes()
		st.BlockReads += seg.BlockReads()
	}
	return st
}

// Flush forces buffered WAL bytes to the OS (durability checkpoint). A
// poisoned WAL can take no more bytes, so until its block's pending seal
// lands that block's admitted records may exist only in memory; Flush
// still flushes every healthy WAL but then reports the gap instead of
// claiming a checkpoint it cannot guarantee. The error clears once the
// sealer persists the block (WaitIdle forces the wait).
func (s *CompactingStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pending error
	for _, b := range s.blocks {
		if b.wal == nil {
			continue
		}
		if b.wal.poisoned() {
			if pending == nil {
				pending = fmt.Errorf("logstore: block %d awaiting seal after wal failure; its records are not yet durable", b.idx)
			}
			continue
		}
		if err := b.wal.flush(); err != nil {
			return err
		}
	}
	return pending
}

// Close implements Store: seals nothing further, stops the compactor,
// and flushes WALs so every hot record survives restart.
func (s *CompactingStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.sealed.Broadcast()
	s.mu.Unlock()
	close(s.doneCh)
	s.sealWG.Wait()
	s.flushWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, b := range s.blocks {
		if b.wal != nil {
			if b.hot != nil && b.wal.poisoned() && firstErr == nil {
				// The shutdown drain could not seal this poisoned block
				// (seal failure on top of the WAL failure): its admitted
				// records die with the process. Report it — a silent nil
				// here would turn the data loss into a clean shutdown.
				firstErr = fmt.Errorf("logstore: close: block %d unsealed after wal failure (seal error: %v); its records are not durable", b.idx, s.sealErr)
			}
			if err := b.wal.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			b.wal = nil
		}
	}
	return firstErr
}

var _ Store = (*CompactingStore)(nil)

// walSink is the buffered-writer surface walWriter writes through.
// Production uses *bufio.Writer; fault-injection tests substitute a
// failing implementation to simulate torn mid-record writes.
type walSink interface {
	io.Writer
	io.StringWriter
	Flush() error
}

// walWriter appends length-prefixed records to one block's write-ahead
// log. Its own mutex serializes the sealer's
// flush against appends/flushes made under the store lock.
//
// A failed append leaves a torn record at the logical tail of the stream
// (header without payload, or a partial payload). Any byte written after
// it would be silently discarded by replay's torn-tail truncation, so the
// writer poisons itself on the first error: every later append fails fast
// and no further bytes ever reach the file. The store reacts by rotating
// to a fresh WAL and sealing this block from memory (see AppendBatch).
type walWriter struct {
	path string
	m    *Metrics // never nil; instruments fsyncs and admitted records
	mu   sync.Mutex
	f    fsx.File
	w    walSink
	err  error // poisoned: first append failure, sticky
}

func openWAL(fsys fsx.FS, path string, m *Metrics) (*walWriter, error) {
	_, statErr := fsys.Stat(path)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logstore: open wal: %w", err)
	}
	if statErr != nil {
		// Fresh WAL file: its directory entry must be durable before any
		// record in it is acked, or a crash could fsync record bytes into
		// a file the post-crash recovery scan never sees.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("logstore: open wal: sync dir: %w", err)
		}
	}
	if m == nil {
		m = &Metrics{}
	}
	return &walWriter{path: path, m: m, f: f, w: bufio.NewWriterSize(f, 128<<10)}, nil
}

// appendBatch writes a batch of records back-to-back into the buffered
// writer under one lock acquisition and one poison check — the WAL half
// of group commit. It returns how many records were fully written; on a
// mid-record failure the writer poisons itself (the tail is torn) and the
// failing record plus everything after it is reported unwritten.
func (w *walWriter) appendBatch(ts time.Time, recs []BatchRecord) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, fmt.Errorf("logstore: wal %s poisoned by earlier failure: %w", filepath.Base(w.path), w.err)
	}
	var hdr [recordOverhead]byte
	var bytes int64
	for i, r := range recs {
		putRecordHeader(hdr[:], ts, r.TemplateID, len(r.Raw))
		if _, err := w.w.Write(hdr[:]); err != nil {
			w.err = err
			w.noteAppendsLocked(int64(i), bytes)
			return i, err
		}
		if _, err := w.w.WriteString(r.Raw); err != nil {
			w.err = err
			w.noteAppendsLocked(int64(i), bytes)
			return i, err
		}
		bytes += int64(recordOverhead + len(r.Raw))
	}
	w.noteAppendsLocked(int64(len(recs)), bytes)
	return len(recs), nil
}

// noteAppendsLocked records n fully-written records totaling b bytes —
// one pair of atomic adds per batch, nothing per record.
func (w *walWriter) noteAppendsLocked(n, b int64) {
	w.m.WALAppendRecords.Add(n)
	w.m.WALAppendBytes.Add(b)
}

// poisoned reports whether an append failed partway, i.e. the stream tail
// may hold a torn record and the file must receive no further bytes.
func (w *walWriter) poisoned() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// poison marks the writer failed (a no-op when it already is), so a
// durability failure observed outside appendBatch — a policy fsync — also
// stops all further bytes to the file.
func (w *walWriter) poison(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *walWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		// Durability for this block comes from sealing it out of memory;
		// flushing could only push torn bytes at the tail, which replay
		// truncates anyway.
		return fmt.Errorf("logstore: wal %s poisoned by earlier failure: %w", filepath.Base(w.path), w.err)
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		w.m.WALFsyncErrors.Inc()
		return err
	}
	start := time.Now()
	err := w.f.Sync()
	w.m.WALFsyncSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		w.m.WALFsyncErrors.Inc()
		return err
	}
	w.m.WALFsyncs.Inc()
	return nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.f.Close()
	}
	if err := w.w.Flush(); err != nil {
		return errors.Join(err, w.f.Close())
	}
	return w.f.Close()
}

// recordOverhead is the WAL record header size: time + templateID + rawLen.
const recordOverhead = 8 + 8 + 4

var errTornRecord = errors.New("logstore: torn record")

// putRecordHeader fills the length-prefixed WAL record header; readRecord
// inverts it.
func putRecordHeader(hdr []byte, ts time.Time, templateID uint64, rawLen int) {
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(ts.UnixNano()))
	binary.LittleEndian.PutUint64(hdr[8:16], templateID)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(rawLen))
}

// readRecord reads one length-prefixed record: 8-byte unix-nano time,
// 8-byte template ID, 4-byte raw length, raw bytes.
func readRecord(r *bufio.Reader) (Record, int64, error) {
	var hdr [recordOverhead]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, errTornRecord
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Record{}, 0, errTornRecord
	}
	ts := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	tmpl := binary.LittleEndian.Uint64(hdr[8:16])
	rawLen := binary.LittleEndian.Uint32(hdr[16:20])
	if rawLen > 64<<20 {
		return Record{}, 0, fmt.Errorf("logstore: implausible record length %d", rawLen)
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return Record{}, 0, errTornRecord
	}
	return Record{Time: time.Unix(0, ts), Raw: string(raw), TemplateID: tmpl},
		int64(recordOverhead) + int64(rawLen), nil
}

// replayWAL loads a write-ahead log into a topic, truncating a torn tail
// (the crash case). The topic stays locked for the whole replay: records
// carry their own timestamps, so they go in one by one, and recovery is
// the only party that can reach the topic yet.
func replayWAL(fsys fsx.FS, path string, into *topic, m *Metrics) error {
	if m == nil {
		m = &Metrics{}
	}
	f, err := fsys.Open(path)
	if err != nil {
		return fmt.Errorf("logstore: replay wal %s: %w", path, err)
	}
	defer f.Close()
	into.mu.Lock()
	defer into.mu.Unlock()
	r := bufio.NewReader(f)
	var goodBytes int64
	var recovered int64
	for {
		rec, n, err := readRecord(r)
		if err == io.EOF {
			m.RecoveredRecords.Add(recovered)
			return nil
		}
		if err != nil {
			if errors.Is(err, errTornRecord) {
				m.RecoveredRecords.Add(recovered)
				m.WALTornTails.Inc()
				return fsys.Truncate(path, goodBytes)
			}
			return fmt.Errorf("logstore: replay wal %s at %d: %w", path, goodBytes, err)
		}
		into.appendLocked(rec.Time, rec.Raw, rec.TemplateID)
		recovered++
		goodBytes += n
	}
}
