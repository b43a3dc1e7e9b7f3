package netingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"bytebrain/internal/obs"
)

// Metrics is the instrument bundle the server updates. Every field is
// optional — the obs instruments are nil-receiver safe, and a nil
// *Metrics behaves like an all-nil bundle — so the server runs fully
// uninstrumented in tests and library use.
//
// All families are service-wide (zero labels): the per-frame hot path
// must not pay a labeled-series lookup per observation.
type Metrics struct {
	Connections       *obs.Counter   // connections accepted, by lifetime
	ActiveConnections *obs.Gauge     // connections currently open
	Frames            *obs.Counter   // frames (or raw batches) ingested OK
	Lines             *obs.Counter   // lines ingested OK
	Bytes             *obs.Counter   // line payload bytes ingested OK
	Busy              *obs.Counter   // frames dropped with a BUSY ack
	Errors            *obs.Counter   // protocol violations + ingest errors
	FrameSeconds      *obs.Histogram // queue-to-ack latency per frame
	InflightBytes     *obs.Gauge     // bytes queued between readers and workers
}

// Config configures a Server. Ingest is the only required field; it is
// called synchronously from per-connection workers, so an OK ack means
// the batch took whatever durability path Ingest provides.
type Config struct {
	// Ingest commits one batch of lines to a topic. The lines slice is
	// reused across calls; implementations may retain the strings but
	// not the slice (the service ingest path already obeys this).
	Ingest func(topic string, lines []string) error
	// MaxFrameBytes bounds a frame body. 0 means DefaultMaxFrameBytes.
	MaxFrameBytes int
	// MaxInflight bounds bytes queued between a connection's reader and
	// its worker; past it frames get BUSY acks. A frame arriving on an
	// idle connection is always admitted, even if it alone exceeds the
	// budget, so any frame within MaxFrameBytes eventually makes
	// progress. 0 means DefaultMaxInflight.
	MaxInflight int64
	// FrameQueue is the per-connection queued-frame cap (default 64).
	FrameQueue int
	// Metrics receives connection/frame telemetry; nil disables it.
	Metrics *Metrics
	// Logf logs connection-level protocol errors; nil disables it.
	Logf func(format string, args ...any)
}

// Server is a streaming ingest listener. Each accepted connection gets
// a reader goroutine (wire → pooled buffer → admission) and a worker
// goroutine (decode → one copy → Ingest → ack), bounded by MaxInflight
// bytes plus one frame in the reader's hands.
type Server struct {
	cfg Config

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts a server on addr ("host:port"; port 0 picks a free
// port) and begins accepting connections.
func Listen(addr string, cfg Config) (*Server, error) {
	if cfg.Ingest == nil {
		return nil, errors.New("netingest: Config.Ingest is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, cfg), nil
}

// serve fills in cfg's defaults and starts accepting on ln.
func serve(ln net.Listener, cfg Config) *Server {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.FrameQueue <= 0 {
		cfg.FrameQueue = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	s := &Server{cfg: cfg, ln: ln, conns: make(map[*srvConn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, kicks every connection's reader off its
// blocking read, lets workers drain and ack already-admitted frames,
// and waits for all connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	now := time.Now()
	for _, c := range conns {
		// Kick the reader without closing the socket: queued frames
		// still get ingested and acked by the worker. The write
		// deadline caps how long a client that stopped reading acks
		// can stall shutdown.
		c.conn.SetReadDeadline(now)
		c.conn.SetWriteDeadline(now.Add(2 * time.Second))
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := newSrvConn(conn, s.cfg)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(sc)
	}
}

// srvConn is per-connection state shared between reader and worker.
//
// Acks queue in acks, in admission order, and go out together in one
// write(2). The worker writes them when its queue runs dry (see
// frameWorker); the reader's BUSY and protocol-violation ERR acks are
// written at once, taking every ack queued before them along.
type srvConn struct {
	conn         net.Conn
	inflight     atomic.Int64   // body bytes admitted to the frame queue
	frameSeconds *obs.Histogram // queue-to-ack latency of OK frames

	wmu    sync.Mutex  // guards the fields below and serialises ack writes
	acks   []byte      // encoded acks not yet written
	starts []time.Time // queue times of the OK frames among acks
	werr   error       // first ack write error; the ack stream is dead
}

func newSrvConn(conn net.Conn, cfg Config) *srvConn {
	// Room for the acks of a full queue, of the frame the worker holds
	// and of one reader ack, so the buffers never grow.
	n := cfg.FrameQueue + 2
	return &srvConn{
		conn:         conn,
		frameSeconds: cfg.Metrics.FrameSeconds,
		acks:         make([]byte, 0, n*AckSize),
		starts:       make([]time.Time, 0, n),
	}
}

// queueAck appends one frame's ack to the connection's unwritten acks;
// queued is the frame's admission time, observed when an OK ack is
// written.
func (c *srvConn) queueAck(seq uint32, status byte, queued time.Time) {
	c.wmu.Lock()
	c.acks = AppendAck(c.acks, seq, status)
	if status == StatusOK {
		c.starts = append(c.starts, queued)
	}
	c.wmu.Unlock()
}

// writeAcks writes every queued ack in one write and observes the
// queue-to-ack latency of the OK frames among them. After a failed
// write it drops the acks and keeps returning that error.
func (c *srvConn) writeAcks() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr == nil && len(c.acks) > 0 {
		//bbvet:ignore lockbalance wmu exists to serialise the acks of one connection; a stalled client blocks only its own acks
		_, c.werr = c.conn.Write(c.acks)
		if c.werr == nil {
			now := time.Now()
			for _, t := range c.starts {
				c.frameSeconds.ObserveDuration(now.Sub(t))
			}
		}
	}
	c.acks, c.starts = c.acks[:0], c.starts[:0]
	return c.werr
}

// ack writes one reader-side ack (BUSY, header ERR, raw-mode final) at
// once, with every ack queued before it. It records no queue time:
// frame_seconds counts only the frames the worker commits.
func (c *srvConn) ack(seq uint32, status byte) error {
	c.wmu.Lock()
	c.acks = AppendAck(c.acks, seq, status)
	c.wmu.Unlock()
	return c.writeAcks()
}

func (s *Server) handle(sc *srvConn) {
	defer s.wg.Done()
	defer func() {
		sc.conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	m := s.cfg.Metrics
	m.Connections.Inc()
	m.ActiveConnections.Add(1)
	defer m.ActiveConnections.Add(-1)

	br := bufio.NewReaderSize(sc.conn, 64<<10)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	switch string(magic[:]) {
	case MagicFramed:
		s.serveFramed(sc, br)
	case MagicRaw:
		s.serveRaw(sc, br)
	default:
		m.Errors.Inc()
		s.logf("netingest: %s: unknown magic %q", sc.conn.RemoteAddr(), magic[:])
	}
}

// pendingFrame travels from reader to worker: the leased body buffer
// plus the header it was read under.
type pendingFrame struct {
	h     Header
	buf   *[]byte
	start time.Time
}

func (s *Server) serveFramed(sc *srvConn, br *bufio.Reader) {
	frames := make(chan pendingFrame, s.cfg.FrameQueue)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.frameWorker(sc, frames)
	}()
	defer wg.Wait()
	defer close(frames)

	m := s.cfg.Metrics
	var hdr [HeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF, peer reset, or shutdown kick
		}
		h := ParseHeader(hdr[:])
		n := h.BodyLen()
		if h.Flags != 0 || h.TopicLen == 0 || h.LineCount == 0 || n > s.cfg.MaxFrameBytes {
			// Protocol violation: the stream cannot be trusted to stay
			// in sync, so reject and close.
			m.Errors.Inc()
			s.logf("netingest: %s: invalid frame header (flags=%d topic=%d lines=%d body=%d)",
				sc.conn.RemoteAddr(), h.Flags, h.TopicLen, h.LineCount, n)
			sc.ack(h.Seq, StatusErr)
			return
		}
		buf := leaseBuf(n)
		if _, err := io.ReadFull(br, (*buf)[:n]); err != nil {
			putBuf(buf)
			return
		}
		// Admission happens after the body is off the wire (a stream
		// cannot skip bytes), so queued memory is bounded by
		// MaxInflight plus this one frame. A frame that lands on an
		// idle connection (inflight was zero) is admitted even when it
		// alone exceeds MaxInflight: otherwise a header-valid frame in
		// (MaxInflight, MaxFrameBytes] would be BUSY-acked forever and
		// a resending client would livelock.
		if in := sc.inflight.Add(int64(n)); in > s.cfg.MaxInflight && in != int64(n) {
			sc.inflight.Add(-int64(n))
			putBuf(buf)
			m.Busy.Inc()
			if sc.ack(h.Seq, StatusBusy) != nil {
				return
			}
			continue
		}
		select {
		case frames <- pendingFrame{h: h, buf: buf, start: time.Now()}:
			m.InflightBytes.Add(int64(n))
		default:
			sc.inflight.Add(-int64(n))
			putBuf(buf)
			m.Busy.Inc()
			if sc.ack(h.Seq, StatusBusy) != nil {
				return
			}
		}
	}
}

// frameWorker drains the frame queue: decode (zero allocations), one
// copy of the line block, synchronous ingest, queued ack. It keeps
// draining after the reader exits so every admitted frame is still
// committed and acked during graceful shutdown.
//
// Acks are written once per wakeup: after committing a frame the worker
// also commits the frames already queued behind it, then writes all
// their acks in one write. A frame that lands on an idle connection is
// acked as soon as it commits, a burst of k queued frames costs one ack
// write, not k, and no ack waits past the commit of the frames that were
// admitted behind it.
func (s *Server) frameWorker(sc *srvConn, frames <-chan pendingFrame) {
	m := s.cfg.Metrics
	var (
		f          Frame
		lines      []string
		topic      string
		topicBytes []byte
		dead       bool // ack write failed; drain without ingesting
	)
	release := func(p pendingFrame, n int64) {
		putBuf(p.buf)
		sc.inflight.Add(-n)
		m.InflightBytes.Add(-n)
	}
	// commit ingests one frame and queues its ack.
	commit := func(p pendingFrame) {
		n := int64(p.h.BodyLen())
		if dead {
			release(p, n)
			return
		}
		if err := f.Decode(p.h, (*p.buf)[:p.h.BodyLen()]); err != nil {
			release(p, n)
			m.Errors.Inc()
			s.logf("netingest: %s: %v", sc.conn.RemoteAddr(), err)
			// Malformed body ⇒ client-side encoder bug; kick the
			// reader so the connection winds down.
			sc.conn.SetReadDeadline(time.Now())
			dead = true
			sc.queueAck(p.h.Seq, StatusErr, p.start)
			return
		}
		if !bytes.Equal(topicBytes, f.Topic) {
			topic = string(f.Topic)
			topicBytes = append(topicBytes[:0], f.Topic...)
		}
		// The single permitted copy: the store retains line strings
		// forever, and the read buffer goes back to the pool, so the
		// block moves into a fresh right-sized allocation and the
		// lines are unsafe-string views into it.
		data := make([]byte, len(f.Block))
		copy(data, f.Block)
		lines = lines[:0]
		start := uint32(0)
		for i := 0; i < f.Lines(); i++ {
			end := f.End(i)
			lines = append(lines, unsafe.String(&data[start], int(end-start)))
			start = end
		}
		nlines, nbytes := len(lines), len(f.Block)
		release(p, n)
		if err := s.cfg.Ingest(topic, lines); err != nil {
			if errors.Is(err, ErrBusy) {
				// The sink shed the batch (e.g. store degraded on a
				// full disk): BUSY tells the client to back off and
				// resend instead of treating the frame as rejected.
				m.Busy.Inc()
				sc.queueAck(p.h.Seq, StatusBusy, p.start)
				return
			}
			m.Errors.Inc()
			sc.queueAck(p.h.Seq, StatusErr, p.start)
			return
		}
		m.Frames.Inc()
		m.Lines.Add(int64(nlines))
		m.Bytes.Add(int64(nbytes))
		sc.queueAck(p.h.Seq, StatusOK, p.start)
	}
	for p := range frames {
		commit(p)
		for k := len(frames); k > 0; k-- {
			commit(<-frames)
		}
		if sc.writeAcks() != nil {
			dead = true
		}
	}
	sc.writeAcks()
}

// rawBatchLines is how many newline-framed lines accumulate before an
// ingest call in raw mode.
const rawBatchLines = 256

// serveRaw handles a "BBR1" connection: topicLen u16 | topic, then
// newline-delimited lines until EOF, then one final ack carrying the
// total line count (mod 2^32). Raw mode copies each line (convenience
// path); framed mode is the zero-copy one.
func (s *Server) serveRaw(sc *srvConn, br *bufio.Reader) {
	m := s.cfg.Metrics
	var tl [2]byte
	if _, err := io.ReadFull(br, tl[:]); err != nil {
		return
	}
	tn := int(uint16(tl[0]) | uint16(tl[1])<<8)
	if tn == 0 {
		m.Errors.Inc()
		sc.ack(0, StatusErr)
		return
	}
	topicB := make([]byte, tn)
	if _, err := io.ReadFull(br, topicB); err != nil {
		return
	}
	topic := string(topicB)

	scanBuf := leaseBuf(64 << 10)
	defer putBuf(scanBuf)
	sc2 := bufio.NewScanner(br)
	sc2.Buffer((*scanBuf)[:0], s.cfg.MaxFrameBytes)

	batch := make([]string, 0, rawBatchLines)
	var total, batchBytes uint32
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.cfg.Ingest(topic, batch); err != nil {
			return err
		}
		m.Frames.Inc()
		m.Lines.Add(int64(len(batch)))
		m.Bytes.Add(int64(batchBytes))
		total += uint32(len(batch))
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	for sc2.Scan() {
		line := sc2.Bytes()
		if len(line) == 0 {
			continue
		}
		batch = append(batch, string(line))
		batchBytes += uint32(len(line))
		if len(batch) == rawBatchLines {
			if err := flush(); err != nil {
				s.rawIngestFail(sc, total, err)
				return
			}
		}
	}
	if err := sc2.Err(); err != nil {
		// Connection error or shutdown kick mid-stream: the client
		// never half-closed, so there is no final ack to send.
		return
	}
	if err := flush(); err != nil {
		s.rawIngestFail(sc, total, err)
		return
	}
	sc.ack(total, StatusOK)
}

// rawIngestFail acks a raw-mode ingest failure: BUSY when the sink shed
// the batch (client backs off and resends from the acked count), ERR
// otherwise.
func (s *Server) rawIngestFail(sc *srvConn, total uint32, err error) {
	m := s.cfg.Metrics
	if errors.Is(err, ErrBusy) {
		m.Busy.Inc()
		sc.ack(total, StatusBusy)
		return
	}
	m.Errors.Inc()
	s.logf("netingest: %s: raw ingest: %v", sc.conn.RemoteAddr(), err)
	sc.ack(total, StatusErr)
}

// maxPooledBuf caps what goes back into the body-buffer pool; rare
// giant frames allocate and are dropped on the floor rather than
// pinning megabytes in the pool.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

func leaseBuf(n int) *[]byte {
	b := bufPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:cap(*b)]
	return b
}

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}
