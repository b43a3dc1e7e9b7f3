package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"bytebrain/internal/netingest"
)

// frameClient is the benchmark's own framed-TCP client: netingest's frame
// codec and 5-byte ack, with every frame's send and ack stamped so the
// benchmark sees per-frame latency, which the library client hides. One
// goroutine drives it; it never holds more than window frames unacked.
type frameClient struct {
	conn    net.Conn
	topic   string
	window  int
	seq     uint32
	pending []pendingFrame
	wbuf    []byte // encoded frames not yet written
	rbuf    []byte // ack bytes read but not yet parsed
	tmp     [512]byte

	free   [][]string // line buffers of acked frames, reused by send
	busy   int64
	errs   int64
	onAck  func(p pendingFrame, now time.Time)
	tracer *tracer
}

// pendingFrame is one frame on the wire awaiting its ack.
type pendingFrame struct {
	seq   uint32
	n     int // index the caller gave the frame
	lines []string
	sent  time.Time
	span  int
}

func dialFrames(addr, topic string, window int) (*frameClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(netingest.MagicFramed)); err != nil {
		conn.Close()
		return nil, err
	}
	return &frameClient{conn: conn, topic: topic, window: window}, nil
}

// send queues one frame; n is the caller's index for it, handed back to
// onAck. When the window is full it first waits for an ack.
func (c *frameClient) send(n int, lines []string) error {
	for len(c.pending) >= c.window {
		if err := c.awaitAck(time.Time{}); err != nil {
			return err
		}
	}
	c.seq++
	sp := c.tracer.begin("wire.tcp.frame", int64(n), -1)
	enc := c.tracer.begin("netingest.append_frame", int64(n), sp)
	var err error
	c.wbuf, err = netingest.AppendFrame(c.wbuf, c.seq, c.topic, lines)
	c.tracer.end(enc, len(lines))
	if err != nil {
		return err
	}
	// The caller reuses lines; a BUSY resend needs its own copy.
	var own []string
	if k := len(c.free); k > 0 {
		own, c.free = c.free[k-1][:0], c.free[:k-1]
	}
	own = append(own, lines...)
	c.pending = append(c.pending, pendingFrame{seq: c.seq, n: n, lines: own, sent: time.Now(), span: sp})
	return nil
}

// flush writes every queued frame to the socket.
func (c *frameClient) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// awaitAck flushes, then blocks until one ack is handled or the deadline
// passes (zero deadline: no limit). A deadline expiry is not an error.
func (c *frameClient) awaitAck(deadline time.Time) error {
	if err := c.flush(); err != nil {
		return err
	}
	for len(c.rbuf) < netingest.AckSize {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return err
		}
		n, err := c.conn.Read(c.tmp[:])
		c.rbuf = append(c.rbuf, c.tmp[:n]...)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return err
		}
	}
	now := time.Now()
	for len(c.rbuf) >= netingest.AckSize {
		seq, status := binary.LittleEndian.Uint32(c.rbuf[:4]), c.rbuf[4]
		c.rbuf = c.rbuf[netingest.AckSize:]
		if err := c.handleAck(seq, status, now); err != nil {
			return err
		}
	}
	return nil
}

func (c *frameClient) handleAck(seq uint32, status byte, now time.Time) error {
	for i, p := range c.pending {
		if p.seq != seq {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		switch status {
		case netingest.StatusOK:
			c.tracer.end(p.span, len(p.lines))
			if c.onAck != nil {
				c.onAck(p, now)
			}
			c.free = append(c.free, p.lines)
		case netingest.StatusBusy:
			// Dropped under backpressure: resend under a new seq, keeping
			// the original send time so the retry is charged to the frame.
			c.busy++
			c.seq++
			var err error
			if c.wbuf, err = netingest.AppendFrame(c.wbuf, c.seq, c.topic, p.lines); err != nil {
				return err
			}
			p.seq = c.seq
			c.pending = append(c.pending, p)
		default:
			c.errs++
			c.tracer.end(p.span, 0)
		}
		return nil
	}
	return fmt.Errorf("ack for unknown frame seq %d", seq)
}

// drain waits until every pending frame is acked.
func (c *frameClient) drain() error {
	for len(c.pending) > 0 {
		if err := c.awaitAck(time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

func (c *frameClient) close() error { return c.conn.Close() }

// httpPeer is one keep-alive HTTP connection to the service.
type httpPeer struct {
	base   string
	client *http.Client
	body   bytes.Buffer
}

func newHTTPPeer(base string) *httpPeer {
	return &httpPeer{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// get fetches path and returns the status and the whole body.
func (p *httpPeer) get(path string) (int, []byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// postLines POSTs lines, newline-separated, to path.
func (p *httpPeer) postLines(path string, lines []string) (int, error) {
	p.body.Reset()
	for _, l := range lines {
		p.body.WriteString(l)
		p.body.WriteByte('\n')
	}
	resp, err := p.client.Post(p.base+path, "text/plain", bytes.NewReader(p.body.Bytes()))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (p *httpPeer) close() { p.client.CloseIdleConnections() }
