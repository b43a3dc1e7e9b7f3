package netingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// ClientOptions tunes a framed-mode Client. The zero value picks sane
// defaults.
type ClientOptions struct {
	// Window is the maximum number of unacked frames in flight
	// (pipelining depth). Default 8.
	Window int
	// MaxFrameBytes is the encoder-side split threshold: Send slices a
	// large batch into frames whose body stays under it. Default
	// DefaultMaxFrameBytes (matching the server default).
	MaxFrameBytes int
	// BusyBackoff is the base delay before resending a BUSY-acked
	// frame; the wait grows linearly with the retry count, capped at
	// 100ms. Default 2ms.
	BusyBackoff time.Duration
	// DialTimeout bounds the TCP dial. Default 5s.
	DialTimeout time.Duration
}

func (o *ClientOptions) withDefaults() {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if o.BusyBackoff <= 0 {
		o.BusyBackoff = 2 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// Client is a framed-mode ingest client with windowed pipelining: up to
// Window frames ride the wire unacked, BUSY acks trigger a backoff and
// resend of the same frame (same seq), and Flush drains the window.
// Because BUSY resends interleave with later frames, cross-frame
// ordering is not guaranteed under backpressure.
//
// A Client is not safe for concurrent use; open one per goroutine.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	opts ClientOptions

	nextSeq uint32
	pending map[uint32]*unacked
	err     error
}

type unacked struct {
	data  []byte // encoded frame, kept for BUSY resend
	tries int
}

// Dial connects to a netingest server and enters framed mode.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		br:      bufio.NewReaderSize(conn, 4<<10),
		opts:    opts,
		pending: make(map[uint32]*unacked),
	}
	if _, err := c.bw.WriteString(MagicFramed); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// Send encodes lines into one or more frames for topic and writes them,
// blocking on acks only when the pipeline window is full. Empty lines
// are skipped. An OK return means the frames are written or queued, not
// yet acked — call Flush for the durability barrier.
//
// A single line too large to fit in one frame cannot be split (the
// protocol frames whole lines), so Send rejects it with a descriptive
// error before any doomed frame hits the wire: lines before it are
// framed and written, lines after it are not sent, and the connection
// stays usable.
func (c *Client) Send(topic string, lines []string) error {
	if c.err != nil {
		return c.err
	}
	start := 0
	body := 0
	flushChunk := func(end int) error {
		if end == start {
			return nil
		}
		err := c.sendFrame(topic, lines[start:end])
		start, body = end, 0
		return err
	}
	for i, l := range lines {
		sz := len(l) + 4
		if len(topic)+sz > c.opts.MaxFrameBytes {
			if err := flushChunk(i); err != nil {
				return err
			}
			return fmt.Errorf("netingest: line %d is %d bytes and cannot fit in a frame (max body %d bytes with topic %q)",
				i, len(l), c.opts.MaxFrameBytes, topic)
		}
		if body > 0 && len(topic)+body+sz > c.opts.MaxFrameBytes {
			if err := flushChunk(i); err != nil {
				return err
			}
		}
		body += sz
	}
	return flushChunk(len(lines))
}

func (c *Client) sendFrame(topic string, lines []string) error {
	for len(c.pending) >= c.opts.Window {
		if err := c.readAck(); err != nil {
			return c.fail(err)
		}
	}
	seq := c.nextSeq
	c.nextSeq++
	data, err := AppendFrame(nil, seq, topic, lines)
	if err != nil {
		if err == ErrNoLines {
			return nil // nothing to send
		}
		return c.fail(err)
	}
	if _, err := c.bw.Write(data); err != nil {
		return c.fail(err)
	}
	c.pending[seq] = &unacked{data: data}
	return nil
}

// readAck flushes buffered writes and blocks for one ack, then also
// resolves every ack already buffered behind it: the server writes the
// acks of one wakeup together, and resolving them all lets sendFrame
// refill the window in one write instead of one frame per ack.
func (c *Client) readAck() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for {
		if err := c.resolveAck(); err != nil {
			return err
		}
		if c.br.Buffered() < AckSize {
			return nil
		}
	}
}

// resolveAck reads one ack and resolves or resends the frame it names.
func (c *Client) resolveAck() error {
	var a [AckSize]byte
	if _, err := io.ReadFull(c.br, a[:]); err != nil {
		return fmt.Errorf("netingest: reading ack: %w", err)
	}
	seq := binary.LittleEndian.Uint32(a[0:4])
	p, ok := c.pending[seq]
	if !ok {
		return fmt.Errorf("netingest: ack for unknown seq %d", seq)
	}
	switch a[4] {
	case StatusOK:
		delete(c.pending, seq)
		return nil
	case StatusBusy:
		p.tries++
		wait := time.Duration(p.tries) * c.opts.BusyBackoff
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		time.Sleep(wait)
		_, err := c.bw.Write(p.data)
		return err
	case StatusErr:
		return fmt.Errorf("netingest: server rejected frame %d", seq)
	default:
		return fmt.Errorf("netingest: unknown ack status %d for seq %d", a[4], seq)
	}
}

// Flush writes out buffered frames and waits until every pending frame
// is acked OK (resending through BUSY storms as needed).
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	for len(c.pending) > 0 {
		if err := c.readAck(); err != nil {
			return c.fail(err)
		}
	}
	return c.fail(c.bw.Flush())
}

// Close flushes, drains the ack window, and closes the connection.
func (c *Client) Close() error {
	flushErr := c.Flush()
	closeErr := c.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// RawClient streams newline-delimited lines in raw mode: write lines,
// then Close half-closes the stream and waits for the server's single
// final ack.
type RawClient struct {
	conn  net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	lines uint32
	err   error
}

// DialRaw connects to a netingest server in raw mode for one topic.
func DialRaw(addr, topic string) (*RawClient, error) {
	if len(topic) == 0 || len(topic) > 0xFFFF {
		return nil, fmt.Errorf("netingest: topic length %d out of range [1,65535]", len(topic))
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &RawClient{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, AckSize),
	}
	c.bw.WriteString(MagicRaw)
	var tl [2]byte
	binary.LittleEndian.PutUint16(tl[:], uint16(len(topic)))
	c.bw.Write(tl[:])
	if _, err := c.bw.WriteString(topic); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// WriteLine sends one line (a trailing newline is appended; empty lines
// are dropped, matching the server's framing). A line with embedded
// newlines is split on them — the server frames the stream on '\n'
// regardless, so each non-empty segment is counted as its own line to
// keep the client-side total in step with the server's final ack.
func (c *RawClient) WriteLine(line []byte) error {
	if c.err != nil {
		return c.err
	}
	for len(line) > 0 {
		seg := line
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			seg, line = line[:i], line[i+1:]
		} else {
			line = nil
		}
		if len(seg) == 0 {
			continue
		}
		if _, err := c.bw.Write(seg); err != nil {
			c.err = err
			return err
		}
		if err := c.bw.WriteByte('\n'); err != nil {
			c.err = err
			return err
		}
		c.lines++
	}
	return nil
}

// Close flushes, half-closes the write side, and waits for the final
// ack. It returns the number of lines the server acknowledged.
func (c *RawClient) Close() (int, error) {
	defer c.conn.Close()
	if c.err != nil {
		return 0, c.err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return 0, err
		}
	}
	var a [AckSize]byte
	if _, err := io.ReadFull(c.br, a[:]); err != nil {
		return 0, fmt.Errorf("netingest: reading final ack: %w", err)
	}
	got := binary.LittleEndian.Uint32(a[0:4])
	if a[4] != StatusOK {
		return int(got), fmt.Errorf("netingest: server rejected raw stream after %d lines", got)
	}
	if got != c.lines {
		return int(got), fmt.Errorf("netingest: server acked %d lines, sent %d", got, c.lines)
	}
	return int(got), nil
}
