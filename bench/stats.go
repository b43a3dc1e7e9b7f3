package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// latencies records one duration per operation together with when the
// operation finished, so tails can be computed per time-slice.
type latencies struct {
	at []time.Duration // completion time since the phase started
	d  []time.Duration
}

func newLatencies(capacity int) *latencies {
	return &latencies{at: make([]time.Duration, 0, capacity), d: make([]time.Duration, 0, capacity)}
}

func (l *latencies) add(at, d time.Duration) {
	l.at = append(l.at, at)
	l.d = append(l.d, d)
}

func (l *latencies) ms() []float64 {
	out := make([]float64, len(l.d))
	for i, d := range l.d {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// p50ms is the median latency in milliseconds.
func (l *latencies) p50ms() float64 { return median(l.ms()) }

// tailSlices is how many equal time-slices a phase is cut into for tails.
const tailSlices = 5

// sliceP99ms cuts the phase into tailSlices equal time-slices, takes each
// slice's p99, and returns the median of those: one stall lands in one
// slice and cannot move the result, which is what lets a tail repeat from
// run to run. Slices with no samples are skipped.
func (l *latencies) sliceP99ms() float64 {
	return slicePercentileMs(l.at, l.d, tailSlices, 99)
}

func slicePercentileMs(at, d []time.Duration, slices int, p float64) float64 {
	if len(d) == 0 || slices < 1 {
		return 0
	}
	var end time.Duration
	for _, t := range at {
		if t > end {
			end = t
		}
	}
	width := end/time.Duration(slices) + 1
	buckets := make([][]float64, slices)
	for i, t := range at {
		b := int(t / width)
		buckets[b] = append(buckets[b], float64(d[i])/float64(time.Millisecond))
	}
	var tails []float64
	for _, b := range buckets {
		if len(b) > 0 {
			tails = append(tails, percentile(b, p))
		}
	}
	return median(tails)
}

// pacer is an open-loop schedule: operation i is due at start+i*interval
// whether or not earlier operations have completed.
type pacer struct {
	start    time.Time
	interval time.Duration
}

// due is when operation i must be sent.
func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// late is how far behind its due time operation i was actually sent
// (zero when sent on time or early).
func (p pacer) late(i int, sentAt time.Time) time.Duration {
	if d := sentAt.Sub(p.due(i)); d > 0 {
		return d
	}
	return 0
}

// latency is operation i's response time counted from when it was DUE,
// not from when it was sent: a stall that delays the send is charged to
// the operations it held up.
func (p pacer) latency(i int, doneAt time.Time) time.Duration { return doneAt.Sub(p.due(i)) }
