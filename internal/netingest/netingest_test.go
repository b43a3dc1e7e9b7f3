package netingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	lines := []string{"alpha one", "", "beta two", "gamma", ""}
	enc, err := AppendFrame(nil, 42, "app", lines)
	if err != nil {
		t.Fatal(err)
	}
	h := ParseHeader(enc)
	if h.Seq != 42 || h.Flags != 0 || h.TopicLen != 3 || h.LineCount != 3 {
		t.Fatalf("header = %+v", h)
	}
	body := enc[HeaderSize:]
	if len(body) != h.BodyLen() {
		t.Fatalf("body %d bytes, header says %d", len(body), h.BodyLen())
	}
	var f Frame
	if err := f.Decode(h, body); err != nil {
		t.Fatal(err)
	}
	if string(f.Topic) != "app" || f.Seq != 42 {
		t.Fatalf("topic=%q seq=%d", f.Topic, f.Seq)
	}
	want := []string{"alpha one", "beta two", "gamma"} // empties skipped
	if f.Lines() != len(want) {
		t.Fatalf("lines = %d, want %d", f.Lines(), len(want))
	}
	for i, w := range want {
		if got := string(f.Line(i)); got != w {
			t.Errorf("line %d = %q, want %q", i, got, w)
		}
	}
}

func TestAppendFrameRejects(t *testing.T) {
	if _, err := AppendFrame(nil, 0, "", []string{"x"}); err == nil {
		t.Error("empty topic accepted")
	}
	if _, err := AppendFrame(nil, 0, strings.Repeat("t", 0x10000), []string{"x"}); err == nil {
		t.Error("oversize topic accepted")
	}
	if _, err := AppendFrame(nil, 0, "app", []string{"", ""}); err != ErrNoLines {
		t.Errorf("all-empty lines: err = %v, want ErrNoLines", err)
	}
}

// corrupt builds an encoded frame and lets the caller damage the raw
// bytes before decoding.
func corrupt(t *testing.T, damage func(hdr *Header, body []byte)) error {
	t.Helper()
	enc, err := AppendFrame(nil, 7, "app", []string{"one", "two"})
	if err != nil {
		t.Fatal(err)
	}
	h := ParseHeader(enc)
	body := append([]byte(nil), enc[HeaderSize:]...)
	damage(&h, body)
	var f Frame
	return f.Decode(h, body)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]func(h *Header, body []byte){
		"nonzero flags":   func(h *Header, _ []byte) { h.Flags = 1 },
		"zero topic":      func(h *Header, _ []byte) { h.TopicLen = 0 },
		"zero lines":      func(h *Header, _ []byte) { h.LineCount = 0 },
		"length mismatch": func(h *Header, _ []byte) { h.BlockLen++ },
		"non-monotonic offsets": func(h *Header, body []byte) {
			// ends are [3, 6]; make the second  ≤ the first.
			binary.LittleEndian.PutUint32(body[h.TopicLen+4:], 2)
		},
		"last offset short": func(h *Header, body []byte) {
			binary.LittleEndian.PutUint32(body[h.TopicLen+4:], 5)
		},
	}
	for name, damage := range cases {
		if err := corrupt(t, damage); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

// collector is a thread-safe Ingest stub.
type collector struct {
	mu      sync.Mutex
	lines   map[string][]string
	err     error
	block   chan struct{} // non-nil: Ingest waits here first
	entered chan struct{} // non-nil: Ingest reports a call here first unless one is pending
}

func (c *collector) ingest(topic string, lines []string) error {
	if c.entered != nil {
		select {
		case c.entered <- struct{}{}:
		default:
		}
	}
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.lines == nil {
		c.lines = make(map[string][]string)
	}
	c.lines[topic] = append(c.lines[topic], lines...)
	return nil
}

func (c *collector) got(topic string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines[topic]...)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *collector) {
	t.Helper()
	col := &collector{}
	if cfg.Ingest == nil {
		cfg.Ingest = col.ingest
	}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, col
}

func TestFramedEndToEnd(t *testing.T) {
	srv, col := newTestServer(t, Config{})
	c, err := Dial(srv.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for batch := 0; batch < 10; batch++ {
		lines := make([]string, 100)
		for i := range lines {
			lines[i] = fmt.Sprintf("batch %d line %d payload", batch, i)
		}
		want = append(want, lines...)
		if err := c.Send("app", lines); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send("other", []string{"different topic line"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := col.got("app")
	if len(got) != len(want) {
		t.Fatalf("ingested %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
	if other := col.got("other"); len(other) != 1 || other[0] != "different topic line" {
		t.Fatalf("other topic = %v", other)
	}
}

func TestFramedSplitsLargeBatch(t *testing.T) {
	srv, col := newTestServer(t, Config{})
	// A tiny client-side frame cap forces Send to slice the batch into
	// many frames; every line must still arrive exactly once, in order.
	c, err := Dial(srv.Addr().String(), ClientOptions{MaxFrameBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = fmt.Sprintf("split line %d with some padding bytes", i)
	}
	if err := c.Send("app", lines); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := col.got("app")
	if len(got) != len(lines) {
		t.Fatalf("ingested %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], lines[i])
		}
	}
}

func TestRawEndToEnd(t *testing.T) {
	srv, col := newTestServer(t, Config{})
	c, err := DialRaw(srv.Addr().String(), "raw-topic")
	if err != nil {
		t.Fatal(err)
	}
	const n = 700 // crosses the 256-line batch boundary twice
	for i := 0; i < n; i++ {
		if err := c.WriteLine([]byte(fmt.Sprintf("raw line %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	acked, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if acked != n {
		t.Fatalf("acked %d lines, want %d", acked, n)
	}
	got := col.got("raw-topic")
	if len(got) != n || got[0] != "raw line 0" || got[n-1] != fmt.Sprintf("raw line %d", n-1) {
		t.Fatalf("ingested %d lines (first=%q)", len(got), got[0])
	}
}

// readAck reads one 5-byte ack off a raw connection.
func readAck(t *testing.T, conn net.Conn) (uint32, byte) {
	t.Helper()
	var a [AckSize]byte
	if _, err := io.ReadFull(conn, a[:]); err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	return binary.LittleEndian.Uint32(a[0:4]), a[4]
}

// TestBusyBackpressure blocks the ingest sink and floods the server: the
// frames past the in-flight budget must come back BUSY immediately (not
// queue without bound), and the admitted bytes must stay within
// MaxInflight plus one frame each for the worker and the reader.
func TestBusyBackpressure(t *testing.T) {
	release := make(chan struct{})
	var unblock sync.Once
	col := &collector{block: release, entered: make(chan struct{}, 1)}
	const maxInflight = 4096
	srv, err := Listen("127.0.0.1:0", Config{
		Ingest:      col.ingest,
		MaxInflight: maxInflight,
		FrameQueue:  64, // deeper than the byte budget ever allows
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Runs before the Close above: a failed test must not leave the
	// worker parked in Ingest, or Close would wait for it forever.
	defer unblock.Do(func() { close(release) })

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(MagicFramed)); err != nil {
		t.Fatal(err)
	}

	// ~1 KiB per frame, 20 frames ≈ 5x the in-flight budget.
	const frames = 20
	line := strings.Repeat("x", 1000)
	frameBytes := 0
	for seq := uint32(0); seq < frames; seq++ {
		enc, err := AppendFrame(nil, seq, "app", []string{line})
		if err != nil {
			t.Fatal(err)
		}
		frameBytes = len(enc) - HeaderSize
		if _, err := conn.Write(enc); err != nil {
			t.Fatal(err)
		}
		if seq == 0 {
			// The worker releases a frame's bytes when it takes it
			// into Ingest. Flood only once frame 0 is there, so no
			// budget frees up while the rest arrive.
			select {
			case <-col.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("worker never called Ingest")
			}
		}
	}

	// With the worker blocked in Ingest the budget can never free up,
	// so the final frame is guaranteed a BUSY ack: read BUSY acks until
	// it shows up, at which point the reader has decided every frame and
	// the admitted set is exact.
	busy := make(map[uint32]bool)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for !busy[frames-1] {
		seq, status := readAck(t, conn)
		if status != StatusBusy {
			t.Fatalf("ack for %d = %d before release, want BUSY", seq, status)
		}
		busy[seq] = true
	}
	admitted := frames - len(busy)
	if admitted*frameBytes > maxInflight+2*frameBytes {
		t.Fatalf("admitted %d frames (%d bytes) exceeds in-flight bound %d",
			admitted, admitted*frameBytes, maxInflight+2*frameBytes)
	}
	if len(busy) == 0 {
		t.Fatal("no BUSY acks despite a blocked sink and 5x budget overload")
	}

	// Unblock: the admitted frames drain to OK acks.
	unblock.Do(func() { close(release) })
	ok := 0
	for ok < admitted {
		_, status := readAck(t, conn)
		if status == StatusOK {
			ok++
		} else if status != StatusBusy {
			t.Fatalf("unexpected ack status %d", status)
		}
	}
	if got := len(col.got("app")); got != admitted {
		t.Fatalf("ingested %d lines, want %d (one per admitted frame)", got, admitted)
	}
}

// TestOversizeFrameAdmittedWhenIdle: a frame bigger than the whole
// in-flight budget (but within MaxFrameBytes) must be admitted when the
// connection is idle, not BUSY-acked forever — the regression here was a
// permanent client livelock for frames in (MaxInflight, MaxFrameBytes].
func TestOversizeFrameAdmittedWhenIdle(t *testing.T) {
	srv, col := newTestServer(t, Config{
		MaxInflight:   512,
		MaxFrameBytes: 64 << 10,
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(MagicFramed))
	big := strings.Repeat("y", 2000) // frame body ~4x MaxInflight
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Two in a row: the budget must free up after the first drains, so
	// oversize frames make progress one at a time, not just once.
	for seq := uint32(0); seq < 2; seq++ {
		enc, err := AppendFrame(nil, seq, "app", []string{big})
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(enc)
		for {
			gotSeq, status := readAck(t, conn)
			if gotSeq != seq {
				t.Fatalf("ack seq = %d, want %d", gotSeq, seq)
			}
			if status == StatusOK {
				break
			}
			if status != StatusBusy {
				t.Fatalf("ack status = %d, want OK or BUSY", status)
			}
			// A BUSY here may only be transient (previous frame still
			// draining); resend like the real client would. The test
			// deadline catches a livelock.
			conn.Write(enc)
		}
	}
	if got := col.got("app"); len(got) != 2 || got[0] != big || got[1] != big {
		t.Fatalf("ingested %d oversize lines, want 2", len(got))
	}

	// The bundled client must also ride through, end to end.
	c, err := Dial(srv.Addr().String(), ClientOptions{MaxFrameBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send("app2", []string{big}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := col.got("app2"); len(got) != 1 || got[0] != big {
		t.Fatalf("client path ingested %d lines, want 1", len(got))
	}
}

// TestSendRejectsOversizedLine: a single line that cannot fit in one
// frame fails Send with a descriptive error instead of wiring a frame
// the server would reject as a protocol violation; the connection stays
// usable afterwards.
func TestSendRejectsOversizedLine(t *testing.T) {
	srv, col := newTestServer(t, Config{})
	c, err := Dial(srv.Addr().String(), ClientOptions{MaxFrameBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("z", 300)
	err = c.Send("app", []string{"fits", huge})
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	if !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("error %q does not describe the oversized line", err)
	}
	if err := c.Send("app", []string{"after the error"}); err != nil {
		t.Fatalf("Send after oversized-line error: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := col.got("app")
	want := []string{"fits", "after the error"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ingested %v, want %v", got, want)
	}
}

// TestRawClientEmbeddedNewlines: WriteLine splits embedded '\n' the way
// the server frames the stream, so the final count ack matches even for
// multi-line writes.
func TestRawClientEmbeddedNewlines(t *testing.T) {
	srv, col := newTestServer(t, Config{})
	c, err := DialRaw(srv.Addr().String(), "raw-topic")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]byte{
		[]byte("a\nb\n\nc"), // 3 lines; empty segment dropped
		[]byte("\n\n"),      // nothing
		[]byte("d\n"),       // 1 line; trailing newline
		[]byte("e"),         // 1 line
	} {
		if err := c.WriteLine(w); err != nil {
			t.Fatal(err)
		}
	}
	acked, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d", "e"}
	if acked != len(want) {
		t.Fatalf("acked %d lines, want %d", acked, len(want))
	}
	got := col.got("raw-topic")
	if len(got) != len(want) {
		t.Fatalf("ingested %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestClientRidesThroughBusy proves the client's resend loop: a tiny
// server budget plus a slow sink forces BUSY acks, and the client must
// still deliver every line exactly once.
func TestClientRidesThroughBusy(t *testing.T) {
	col := &collector{}
	slow := func(topic string, lines []string) error {
		time.Sleep(200 * time.Microsecond)
		return col.ingest(topic, lines)
	}
	srv, err := Listen("127.0.0.1:0", Config{
		Ingest:      slow,
		MaxInflight: 2048,
		FrameQueue:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), ClientOptions{Window: 8, BusyBackoff: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const batches, per = 40, 8
	for b := 0; b < batches; b++ {
		lines := make([]string, per)
		for i := range lines {
			lines[i] = fmt.Sprintf("busy batch %d line %d %s", b, i, strings.Repeat("p", 100))
		}
		if err := c.Send("app", lines); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := col.got("app")
	if len(got) != batches*per {
		t.Fatalf("ingested %d lines, want %d (BUSY resends must not drop or duplicate)", len(got), batches*per)
	}
	seen := make(map[string]bool, len(got))
	for _, l := range got {
		if seen[l] {
			t.Fatalf("duplicate line %q", l)
		}
		seen[l] = true
	}
}

func TestProtocolViolationsCloseConnection(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte("NOPE"))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after bad magic: read err = %v, want EOF", err)
		}
	})
	t.Run("oversize frame", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{MaxFrameBytes: 1024})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(MagicFramed))
		var hdr [HeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 9)
		hdr[4] = 0
		binary.LittleEndian.PutUint16(hdr[5:7], 3)
		binary.LittleEndian.PutUint32(hdr[7:11], 1)
		binary.LittleEndian.PutUint32(hdr[11:15], 1<<20) // past MaxFrameBytes
		conn.Write(hdr[:])
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		seq, status := readAck(t, conn)
		if seq != 9 || status != StatusErr {
			t.Fatalf("ack = (%d, %d), want (9, ERR)", seq, status)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after oversize frame: read err = %v, want EOF", err)
		}
	})
	t.Run("nonzero flags", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(MagicFramed))
		enc, _ := AppendFrame(nil, 3, "app", []string{"x"})
		enc[4] = 0x80 // flags
		conn.Write(enc)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if seq, status := readAck(t, conn); seq != 3 || status != StatusErr {
			t.Fatalf("ack = (%d, %d), want (3, ERR)", seq, status)
		}
	})
	t.Run("malformed offsets", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(MagicFramed))
		enc, _ := AppendFrame(nil, 5, "app", []string{"one", "two"})
		// Break monotonicity of the ends array in the wire bytes.
		binary.LittleEndian.PutUint32(enc[HeaderSize+3+4:], 1)
		conn.Write(enc)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if seq, status := readAck(t, conn); seq != 5 || status != StatusErr {
			t.Fatalf("ack = (%d, %d), want (5, ERR)", seq, status)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after malformed offsets: read err = %v, want EOF", err)
		}
	})
}

// TestIngestErrorKeepsConnectionOpen: a per-frame sink error (unknown
// topic) ERR-acks that frame but later frames still flow.
func TestIngestErrorKeepsConnectionOpen(t *testing.T) {
	col := &collector{}
	sink := func(topic string, lines []string) error {
		if topic == "ghost" {
			return fmt.Errorf("unknown topic %q", topic)
		}
		return col.ingest(topic, lines)
	}
	srv, err := Listen("127.0.0.1:0", Config{Ingest: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(MagicFramed))
	enc, _ := AppendFrame(nil, 1, "ghost", []string{"dropped"})
	conn.Write(enc)
	enc2, _ := AppendFrame(nil, 2, "app", []string{"kept"})
	conn.Write(enc2)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if seq, status := readAck(t, conn); seq != 1 || status != StatusErr {
		t.Fatalf("ack 1 = (%d, %d), want (1, ERR)", seq, status)
	}
	if seq, status := readAck(t, conn); seq != 2 || status != StatusOK {
		t.Fatalf("ack 2 = (%d, %d), want (2, OK)", seq, status)
	}
	if got := col.got("app"); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("app lines = %v", got)
	}
}

// TestCloseDrainsAdmittedFrames: frames admitted before Close are still
// ingested and acked; the client sees clean acks, not a reset.
func TestCloseDrainsAdmittedFrames(t *testing.T) {
	release := make(chan struct{})
	col := &collector{block: release}
	srv, err := Listen("127.0.0.1:0", Config{Ingest: col.ingest})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(MagicFramed))
	for seq := uint32(0); seq < 3; seq++ {
		enc, _ := AppendFrame(nil, seq, "app", []string{fmt.Sprintf("drain %d", seq)})
		conn.Write(enc)
	}
	// Let the reader admit the frames, then close concurrently with a
	// blocked sink; unblock shortly after.
	time.Sleep(50 * time.Millisecond)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(col.got("app")); got != 3 {
		t.Fatalf("ingested %d lines across Close, want 3", got)
	}
	// All three acks arrived before the server closed the conn.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	acked := make(map[uint32]bool)
	for i := 0; i < 3; i++ {
		seq, status := readAck(t, conn)
		if status != StatusOK {
			t.Fatalf("ack %d status = %d, want OK", seq, status)
		}
		acked[seq] = true
	}
	if len(acked) != 3 {
		t.Fatalf("acked %d distinct frames, want 3", len(acked))
	}
}

// TestBusyAckOnErrBusy: a sink returning ErrBusy (wrapped) — e.g. the
// store degraded to read-only on a full disk — must come back as a BUSY
// ack in both modes, telling clients to back off and resend, not as the
// terminal ERR status. The connection stays open and healthy frames
// still flow.
func TestBusyAckOnErrBusy(t *testing.T) {
	col := &collector{}
	sink := func(topic string, lines []string) error {
		if topic == "full" {
			return fmt.Errorf("store degraded: %w", ErrBusy)
		}
		return col.ingest(topic, lines)
	}
	srv, err := Listen("127.0.0.1:0", Config{Ingest: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(MagicFramed))
	enc, _ := AppendFrame(nil, 1, "full", []string{"shed me"})
	conn.Write(enc)
	enc2, _ := AppendFrame(nil, 2, "app", []string{"kept"})
	conn.Write(enc2)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if seq, status := readAck(t, conn); seq != 1 || status != StatusBusy {
		t.Fatalf("ack 1 = (%d, %d), want (1, BUSY)", seq, status)
	}
	if seq, status := readAck(t, conn); seq != 2 || status != StatusOK {
		t.Fatalf("ack 2 = (%d, %d), want (2, OK)", seq, status)
	}
	if got := col.got("app"); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("app lines = %v", got)
	}

	// Raw mode: the single final ack carries BUSY too.
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte(MagicRaw))
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len("full")))
	raw.Write(hdr[:])
	raw.Write([]byte("full"))
	raw.Write([]byte("a line\n"))
	if cw, ok := raw.(*net.TCPConn); ok {
		cw.CloseWrite()
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, status := readAck(t, raw); status != StatusBusy {
		t.Fatalf("raw ack status = %d, want BUSY", status)
	}
}
