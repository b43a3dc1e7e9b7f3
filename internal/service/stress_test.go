package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHotPathStress interleaves Ingest, Query, forced Train and Compact
// on one segment-store topic from many goroutines. Run under -race (CI
// does) it proves the lock-free hot path: matching against the atomic
// snapshot, store appends, reservoir offers, background training swaps
// and sealed-segment metadata queries never touch unsynchronized state.
func TestHotPathStress(t *testing.T) {
	cfg := Config{
		Parser:        testConfig().Parser,
		TrainVolume:   400,
		TrainInterval: time.Hour,
		SegmentBytes:  16 << 10,
		SegmentCodec:  "flate",
	}
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("hot"); err != nil {
		t.Fatal(err)
	}
	// Bootstrap a model so queries have something to roll up.
	if err := s.Ingest("hot", genLines(300, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("hot"); err != nil {
		t.Fatal(err)
	}

	const (
		ingesters = 4
		rounds    = 25
		batch     = 40
	)
	var wg sync.WaitGroup
	var ingested atomic.Int64
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lines := genLines(batch, int64(1000+g*rounds+i))
				if err := s.Ingest("hot", lines); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				ingested.Add(int64(len(lines)))
			}
		}(g)
	}
	wg.Add(3)
	go func() { // querier
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.Query("hot", 0.7, TimeRange{}); err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if _, err := s.TopicStats("hot"); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
		}
	}()
	go func() { // trainer
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Train("hot"); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact("hot"); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	stats, err := s.TopicStats("hot")
	if err != nil {
		t.Fatal(err)
	}
	want := 300 + int(ingested.Load())
	if stats.Records != want {
		t.Fatalf("records = %d, want %d", stats.Records, want)
	}
	// Every record is still accounted for by a grouped query.
	rows, err := s.Query("hot", 0.7, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Count
	}
	if total != want {
		t.Fatalf("query covered %d of %d records", total, want)
	}
}

// TestTrainingDoesNotBlockIngest holds a training cycle open via the test
// hook and asserts that Ingest, Query and TopicStats all complete while
// it is stalled — the tentpole guarantee that retraining never blocks the
// hot path.
func TestTrainingDoesNotBlockIngest(t *testing.T) {
	cfg := testConfig()
	cfg.TrainVolume = 1 << 30 // only explicit Train cycles
	s := New(cfg)
	defer s.Close()
	if err := s.CreateTopic("app"); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("app", genLines(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Train("app"); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	s.trainHook = func(string) {
		close(entered)
		<-release
	}
	if err := s.Ingest("app", genLines(10, 2)); err != nil { // refill reservoir
		t.Fatal(err)
	}
	trainDone := make(chan error, 1)
	go func() { trainDone <- s.Train("app") }()
	<-entered // training is now in progress and stalled

	hotPathDone := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := s.Ingest("app", genLines(25, int64(100+i))); err != nil {
				hotPathDone <- err
				return
			}
			if _, err := s.Query("app", 0.7, TimeRange{}); err != nil {
				hotPathDone <- err
				return
			}
			if _, err := s.TopicStats("app"); err != nil {
				hotPathDone <- err
				return
			}
		}
		hotPathDone <- nil
	}()
	select {
	case err := <-hotPathDone:
		if err != nil {
			t.Fatalf("hot path failed during training: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Ingest/Query blocked while training was in progress")
	}
	if stats, _ := s.TopicStats("app"); !stats.Training {
		t.Error("stats should report the stalled training cycle")
	}
	close(release)
	if err := <-trainDone; err != nil {
		t.Fatalf("stalled training cycle failed: %v", err)
	}
}

func TestReservoirSeedsDifferPerTopic(t *testing.T) {
	if topicSeed("aaaa") == topicSeed("bbbb") {
		t.Error("same-length topic names share a reservoir RNG seed")
	}
}
