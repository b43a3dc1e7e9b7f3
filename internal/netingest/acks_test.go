package netingest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytebrain/internal/obs"
)

// countingConn counts the Write calls the server makes on one
// connection: each is one write(2) of acks.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// gatedSink is an Ingest that reports each call on entered and then
// waits for a token on gate (or for gate to close). Topic "ghost" fails
// the batch, topic "full" sheds it with ErrBusy.
type gatedSink struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

// open lets every Ingest call through from now on.
func (g *gatedSink) open() { g.once.Do(func() { close(g.gate) }) }

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatedSink) ingest(topic string, _ []string) error {
	g.entered <- struct{}{}
	<-g.gate
	switch topic {
	case "ghost":
		return errors.New("unknown topic")
	case "full":
		return fmt.Errorf("store degraded: %w", ErrBusy)
	}
	return nil
}

// waitEntered waits until the worker is inside Ingest with its next frame.
func (g *gatedSink) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never called Ingest")
	}
}

// ackRig is a server whose ack writes are counted, one framed client
// connection to it, and the sink behind it.
type ackRig struct {
	srv    *Server
	conn   net.Conn
	writes *atomic.Int64
	sink   *gatedSink
	frame  *obs.Histogram
}

func newAckRig(t *testing.T) *ackRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &ackRig{writes: new(atomic.Int64), sink: newGatedSink()}
	r.frame = obs.NewRegistry().Histogram("bb_test_frame_seconds", "test", obs.LatencyBuckets).With()
	r.srv = serve(countingListener{ln, r.writes}, Config{
		Ingest:  r.sink.ingest,
		Metrics: &Metrics{FrameSeconds: r.frame},
	})
	t.Cleanup(func() { r.srv.Close() })
	// Runs before the Close above: a failed test must not leave the
	// worker parked in Ingest, or Close would wait for it forever.
	t.Cleanup(r.sink.open)
	if r.conn, err = net.Dial("tcp", r.srv.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.conn.Close() })
	if _, err := r.conn.Write([]byte(MagicFramed)); err != nil {
		t.Fatal(err)
	}
	return r
}

// send writes one one-line frame and returns its body size.
func (r *ackRig) send(t *testing.T, seq uint32, topic string) int64 {
	t.Helper()
	enc, err := AppendFrame(nil, seq, topic, []string{fmt.Sprintf("frame %d", seq)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.conn.Write(enc); err != nil {
		t.Fatal(err)
	}
	return int64(len(enc) - HeaderSize)
}

// waitQueued waits until n body bytes sit in the connection's frame
// queue: the worker releases a frame's bytes before it calls Ingest.
func (r *ackRig) waitQueued(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q := int64(-1)
		r.srv.mu.Lock()
		for c := range r.srv.conns {
			q = c.inflight.Load()
		}
		r.srv.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued bytes = %d, want %d", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectAcks reads len(want) acks, failing if they do not arrive within
// the deadline or differ from want in seq, status or order.
func (r *ackRig) expectAcks(t *testing.T, deadline time.Duration, want ...[2]uint32) {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(deadline))
	for _, w := range want {
		seq, status := readAck(t, r.conn)
		if seq != w[0] || uint32(status) != w[1] {
			t.Fatalf("ack = (%d, %d), want (%d, %d)", seq, status, w[0], w[1])
		}
	}
}

func okAck(seq uint32) [2]uint32 { return [2]uint32{seq, uint32(StatusOK)} }

// TestAcksCoalescePerWakeup pins when the frame worker writes its acks:
// once its queue runs dry, so a burst costs one write while a lone frame
// is still acked as soon as it commits, and never later than the commit
// of the frames that were queued behind an ack.
func TestAcksCoalescePerWakeup(t *testing.T) {
	t.Run("burst shares writes", func(t *testing.T) {
		r := newAckRig(t)
		const n = 8
		r.send(t, 0, "app")
		r.sink.waitEntered(t)
		var queued int64
		for seq := uint32(1); seq < n; seq++ {
			queued += r.send(t, seq, "app")
		}
		r.waitQueued(t, queued)
		r.sink.open()
		want := make([][2]uint32, n)
		for i := range want {
			want[i] = okAck(uint32(i))
		}
		r.expectAcks(t, 5*time.Second, want...)
		if w := r.writes.Load(); w >= n {
			t.Fatalf("%d OK acks took %d writes, want fewer", n, w)
		}
		r.srv.Close()
		if got := r.frame.Count(); got != n {
			t.Fatalf("frame latency observed %d times, want %d (one per OK ack written)", got, n)
		}
	})

	t.Run("idle frame acked at once", func(t *testing.T) {
		r := newAckRig(t)
		r.sink.open()
		for seq := uint32(0); seq < 2; seq++ {
			r.send(t, seq, "app")
			// The next frame is sent only after this ack is read, so
			// an ack that waited for company would time out here.
			r.expectAcks(t, 5*time.Second, okAck(seq))
		}
		if w := r.writes.Load(); w != 2 {
			t.Fatalf("2 lone frames took %d ack writes, want 2", w)
		}
	})

	t.Run("ERR and BUSY keep their place", func(t *testing.T) {
		r := newAckRig(t)
		r.send(t, 0, "app")
		r.sink.waitEntered(t)
		var queued int64
		for seq, topic := range []string{"ghost", "app", "full", "app"} {
			queued += r.send(t, uint32(seq+1), topic)
		}
		r.waitQueued(t, queued)
		r.sink.open()
		r.expectAcks(t, 5*time.Second,
			okAck(0),
			[2]uint32{1, uint32(StatusErr)},
			okAck(2),
			[2]uint32{3, uint32(StatusBusy)},
			okAck(4))
		if w := r.writes.Load(); w >= 5 {
			t.Fatalf("5 acks took %d writes, want fewer", w)
		}
	})

	t.Run("held acks wait only for the frames behind them", func(t *testing.T) {
		// The client keeps the queue non-empty: frames 3 and 4 arrive
		// while the frames queued behind ack 0 commit. Acks 0–2 must go
		// out once frame 2 commits, while 3 and 4 are still uncommitted.
		r := newAckRig(t)
		b := r.send(t, 0, "app")
		r.sink.waitEntered(t)
		r.send(t, 1, "app")
		r.send(t, 2, "app")
		r.waitQueued(t, 2*b)
		for seq := uint32(3); seq <= 4; seq++ {
			r.sink.gate <- struct{}{} // commits frame seq-3
			r.sink.waitEntered(t)     // the worker holds frame seq-2
			r.send(t, seq, "app")
			r.waitQueued(t, 2*b)
		}
		r.sink.gate <- struct{}{} // commits frame 2
		r.expectAcks(t, 2*time.Second, okAck(0), okAck(1), okAck(2))
		r.sink.waitEntered(t) // frame 3 is uncommitted
		r.sink.open()
		r.expectAcks(t, 5*time.Second, okAck(3), okAck(4))
	})

	t.Run("raw final acks leave frame latency alone", func(t *testing.T) {
		// frame_seconds counts the frames the worker commits; a raw
		// connection's final ack has no queue time and must not be
		// observed (a zero start time would read as ~292 years).
		r := newAckRig(t)
		r.sink.open()
		r.send(t, 0, "app")
		r.expectAcks(t, 5*time.Second, okAck(0))
		for i := 0; i < 2; i++ {
			raw, err := net.Dial("tcp", r.srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			raw.Write([]byte(MagicRaw))
			raw.Write([]byte{3, 0})
			raw.Write([]byte("app\nline a\nline b\n"))
			raw.(*net.TCPConn).CloseWrite()
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			if seq, status := readAck(t, raw); seq != 2 || status != StatusOK {
				t.Fatalf("raw ack = (%d, %d), want (2, OK)", seq, status)
			}
		}
		r.srv.Close()
		if got := r.frame.Count(); got != 1 {
			t.Fatalf("frame latency observed %d times, want 1 (the framed OK frame only)", got)
		}
		if sum := r.frame.Sum(); sum < 0 || time.Duration(sum) > 5*time.Second {
			t.Fatalf("frame latency sum = %v, want the one framed frame's latency", time.Duration(sum))
		}
	})

	t.Run("ack path allocates nothing", func(t *testing.T) {
		hist := obs.NewRegistry().Histogram("bb_test_frame_seconds", "test", obs.LatencyBuckets).With()
		sc := newSrvConn(discardConn{}, Config{FrameQueue: 64, Metrics: &Metrics{FrameSeconds: hist}})
		start := time.Now()
		allocs := testing.AllocsPerRun(200, func() {
			for seq := uint32(0); seq < 64; seq++ {
				sc.queueAck(seq, StatusOK, start)
			}
			sc.ack(64, StatusBusy)
			sc.queueAck(65, StatusErr, time.Time{})
			sc.writeAcks()
		})
		if allocs != 0 {
			t.Fatalf("ack path allocates %.1f times per round, want 0", allocs)
		}
	})
}

// discardConn is a net.Conn whose writes always succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
