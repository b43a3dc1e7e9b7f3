package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bytebrain/internal/datagen"
)

// genCut generates an n-line LogHub-2.0 cut of the named dataset. The
// generator sizes cuts by a scale of the dataset's full volume and never
// goes below the 2000-line LogHub cut or two lines per template, so the
// result can be slightly longer than n; it is truncated to n when longer.
func genCut(name string, n int, seed int64) (*datagen.Dataset, error) {
	full := datagen.FullLogHub2Lines(name)
	if full == 0 {
		return nil, fmt.Errorf("gen: %s is not a LogHub-2.0 dataset", name)
	}
	ds, err := datagen.LogHub2(name, (float64(n)+0.5)/float64(full), seed)
	if err != nil {
		return nil, err
	}
	if len(ds.Lines) > n {
		ds.Lines, ds.Truth = ds.Lines[:n], ds.Truth[:n]
	}
	return ds, nil
}

func rawBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}

// source hands the measured loop its next batch of lines.
type source interface {
	// next returns the next n lines; the slice is valid until the next
	// call.
	next(n int) []string
	// overhead is the wall time and allocation next has spent generating
	// (not slicing) since the source was built; the measured loop
	// subtracts both so the generator is not charged to the program.
	overhead() (time.Duration, uint64)
}

// linePool is a fixed set of distinct lines replayed in a fresh seeded
// shuffle each pass: every line repeats, so a cache over raw lines hits,
// but no two passes present the same order.
type linePool struct {
	lines []string
	truth []int
	perm  []int
	pos   int
	rng   *rand.Rand
	buf   []string
}

// newLinePool draws size distinct lines (with their truth labels) from a
// generated cut of the named dataset.
func newLinePool(name string, size int, seed int64) (*linePool, error) {
	p := &linePool{rng: rand.New(rand.NewSource(seed ^ 0x706f6f6c))}
	seen := make(map[string]struct{}, size)
	// Cuts repeat lines (BGL is ~40% distinct), so oversample and grow
	// until enough distinct lines turn up.
	for n := size * 4; len(p.lines) < size; n *= 2 {
		ds, err := genCut(name, n, seed)
		if err != nil {
			return nil, err
		}
		p.lines, p.truth = p.lines[:0], p.truth[:0]
		clear(seen)
		for i, l := range ds.Lines {
			if _, dup := seen[l]; dup {
				continue
			}
			seen[l] = struct{}{}
			p.lines = append(p.lines, l)
			p.truth = append(p.truth, ds.Truth[i])
			if len(p.lines) == size {
				break
			}
		}
		if n > 64*size {
			return nil, fmt.Errorf("gen: %s yields only %d distinct lines, want %d", name, len(p.lines), size)
		}
	}
	p.perm = make([]int, size)
	for i := range p.perm {
		p.perm[i] = i
	}
	p.pos = size // force a shuffle on first use
	return p, nil
}

func (p *linePool) next(n int) []string {
	p.buf = p.buf[:0]
	for len(p.buf) < n {
		if p.pos == len(p.perm) {
			p.rng.Shuffle(len(p.perm), func(i, j int) { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] })
			p.pos = 0
		}
		p.buf = append(p.buf, p.lines[p.perm[p.pos]])
		p.pos++
	}
	return p.buf
}

func (p *linePool) overhead() (time.Duration, uint64) { return 0, 0 }

// lineStream is an endless stream of generated lines, produced a chunk at
// a time so a faster program never runs out and a slower one does not pay
// for lines it never reads. Chunk i is the cut generated from seed+i.
type lineStream struct {
	name      string
	seed      int64
	chunkSize int
	chunk     *datagen.Dataset
	chunkNo   int64
	pos       int
	genTime   time.Duration
	genAlloc  uint64
	err       error
}

func newLineStream(name string, chunkSize int, seed int64) *lineStream {
	return &lineStream{name: name, seed: seed, chunkSize: chunkSize}
}

func (s *lineStream) fill() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ds, err := genCut(s.name, s.chunkSize, s.seed+s.chunkNo*1000003)
	if err != nil {
		s.err = err
		return
	}
	s.chunk, s.pos = ds, 0
	s.chunkNo++
	runtime.ReadMemStats(&after)
	s.genTime += time.Since(t0)
	s.genAlloc += after.TotalAlloc - before.TotalAlloc
}

// nextWithTruth returns the next up-to-n lines of the current chunk and
// their truth labels (fewer than n at a chunk boundary).
func (s *lineStream) nextWithTruth(n int) ([]string, []int) {
	if s.chunk == nil || s.pos == len(s.chunk.Lines) {
		s.fill()
		if s.err != nil {
			return nil, nil
		}
	}
	hi := min(s.pos+n, len(s.chunk.Lines))
	lines, truth := s.chunk.Lines[s.pos:hi], s.chunk.Truth[s.pos:hi]
	s.pos = hi
	return lines, truth
}

func (s *lineStream) next(n int) []string {
	lines, _ := s.nextWithTruth(n)
	return lines
}

func (s *lineStream) overhead() (time.Duration, uint64) { return s.genTime, s.genAlloc }
