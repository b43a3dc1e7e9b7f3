package service

import (
	"fmt"
	"time"

	"bytebrain/internal/core"
)

// trainer.go — the per-topic background training cycle. Ingest never
// trains inline: it bumps trigger counters and pokes the trainer through
// a non-blocking channel send; the trainer steals the reservoir, trains
// and merges outside every ingestion-path lock, and atomically swaps the
// new (model, matcher) snapshot in when done.

// kickTrainer requests a training cycle; a no-op when one is already
// queued.
func (st *topicState) kickTrainer() {
	select {
	case st.trainCh <- struct{}{}:
	default:
	}
}

// trainErr returns the most recent background training failure, if any.
func (st *topicState) trainErr() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.lastErr
}

func (st *topicState) setTrainErr(err error) {
	st.errMu.Lock()
	st.lastErr = err
	st.errMu.Unlock()
}

// trainLoop runs training cycles for one topic until the service closes.
func (s *Service) trainLoop(st *topicState) {
	defer st.wg.Done()
	for {
		select {
		case <-st.stopCh:
			return
		case <-st.trainCh:
		}
		st.setTrainErr(s.trainOnce(st))
	}
}

// Train forces a synchronous training cycle for the topic and returns its
// error directly (background-cycle failures surface in Stats instead).
func (s *Service) Train(topicName string) error {
	st, err := s.topic(topicName)
	if err != nil {
		return err
	}
	return s.trainOnce(st)
}

// trainOnce wraps one training cycle with its telemetry: cycle duration,
// error counter, and the last-error gauge (1 while the most recent cycle
// failed, 0 once one succeeds).
func (s *Service) trainOnce(st *topicState) error {
	start := time.Now()
	err := s.trainCycle(st)
	st.met.trainSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		st.met.trainErrors.Inc()
		st.met.trainLastError.Set(1)
	} else {
		st.met.trainLastError.Set(0)
	}
	return err
}

// trainCycle runs one training cycle: steal the reservoir, train + merge
// against a snapshot of the current model (temporaries included), build
// the new matcher, persist the snapshot (under DataDir), and atomically
// publish. The only locks it ever holds are trainMu (cycle serialization
// — never taken by Ingest) and resMu for the microseconds of the buffer
// swap, so ingestion proceeds at full speed throughout.
func (s *Service) trainCycle(st *topicState) error {
	st.trainMu.Lock()
	defer st.trainMu.Unlock()
	st.training.Store(true)
	defer st.training.Store(false)

	now := s.cfg.Now()
	st.resMu.Lock()
	lines := st.buffer
	st.buffer = nil
	st.bufSeen = 0
	st.resMu.Unlock()
	st.sinceLast.Store(0)
	st.lastTrain.Store(now.UnixNano())
	if len(lines) == 0 {
		return nil
	}
	if s.trainHook != nil {
		s.trainHook(st.name)
	}

	// Heavy lifting, entirely outside any lock Ingest touches. The prev
	// model snapshot folds in the matcher's temporary templates so the
	// merge can drop them and forward their IDs.
	var prev *core.Model
	var prevMatcher *core.Matcher
	if snap := st.snap.Load(); snap != nil {
		prevMatcher = snap.matcher
		prev = prevMatcher.SnapshotModel()
	}
	res, err := st.parser.TrainMerge(prev, lines)
	if err != nil {
		st.restoreReservoir(lines)
		return fmt.Errorf("service: train %s: %w", st.name, err)
	}
	if err := res.Model.Validate(); err != nil {
		st.restoreReservoir(lines)
		return fmt.Errorf("service: train %s produced invalid model: %w", st.name, err)
	}
	data, err := res.Model.MarshalBinary()
	if err != nil {
		st.restoreReservoir(lines)
		return fmt.Errorf("service: snapshot %s: %w", st.name, err)
	}
	if st.internal != nil {
		if err := st.internal.AppendSnapshot(now, data); err != nil {
			st.restoreReservoir(lines)
			return fmt.Errorf("service: snapshot %s: %w", st.name, err)
		}
	}
	// The new matcher inherits the previous overlay: temporaries
	// inserted after the snapshot (mid-training arrivals) survive the
	// swap, so their stored records keep resolving until the next cycle
	// learns them from the reservoir. This step mutates the shared
	// overlay (pruning absorbed entries), so it runs only after every
	// fallible step above — the cycle is committed from here on.
	matcher, err := st.parser.NewMatcherFrom(res.Model, prevMatcher)
	if err != nil {
		// Unreachable in practice: the model was validated non-empty.
		st.restoreReservoir(lines)
		return fmt.Errorf("service: train %s: %w", st.name, err)
	}
	st.snap.Store(st.newSnapshot(res.Model, matcher, data))
	st.trainings.Add(1)
	st.met.trainSwaps.Inc()
	return nil
}

// restoreReservoir puts stolen lines back after a failed cycle so their
// structures are not lost to the next one.
func (st *topicState) restoreReservoir(lines []string) {
	st.resMu.Lock()
	defer st.resMu.Unlock()
	if len(st.buffer) == 0 {
		st.buffer = lines
		st.bufSeen = len(lines)
		return
	}
	for _, line := range lines {
		st.offerLocked(line)
	}
}
