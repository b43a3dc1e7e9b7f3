// Fixture for the ack-ordering analyzer: a netingest-shaped package
// where OK acks must be dominated by a store commit. The bad shapes are
// mutations of the real frame worker that acknowledge success before
// (or without) the ingest call; the good shapes mirror the framed and
// raw paths of the real server, including the commit-through-closure
// idiom.
package ackfix

const (
	StatusOK  byte = 0
	StatusErr byte = 1
)

type frame struct {
	seq   uint32
	topic string
	lines []string
}

type Config struct {
	Ingest func(topic string, lines []string) error
}

type conn struct{}

func (c *conn) ack(seq uint32, status byte) error { return nil }

// frameWorker is the ack-before-commit mutation: the client is told the
// frame is durable before Ingest has run. A crash between the two loses
// data the client already dropped.
func frameWorker(cfg Config, c *conn, frames <-chan frame) {
	for f := range frames {
		c.ack(f.seq, StatusOK) // want "OK ack is not dominated by a store commit"
		if err := cfg.Ingest(f.topic, f.lines); err != nil {
			c.ack(f.seq, StatusErr)
		}
	}
}

// ackWithoutCommit never commits at all on the acked path.
func ackWithoutCommit(cfg Config, c *conn, f frame) {
	if len(f.lines) == 0 {
		c.ack(f.seq, StatusOK) // want "OK ack is not dominated by a store commit"
		return
	}
	if err := cfg.Ingest(f.topic, f.lines); err != nil {
		c.ack(f.seq, StatusErr)
		return
	}
	c.ack(f.seq, StatusOK)
}

// frameWorkerGood is the real ordering: Ingest dominates the OK ack;
// the error ack on the failure branch is exempt.
func frameWorkerGood(cfg Config, c *conn, frames <-chan frame) {
	for f := range frames {
		if err := cfg.Ingest(f.topic, f.lines); err != nil {
			c.ack(f.seq, StatusErr)
			continue
		}
		c.ack(f.seq, StatusOK)
	}
}

// rawGood commits through a closure variable, the serveRaw shape: the
// fixpoint pre-pass marks push as committing because its body calls
// cfg.Ingest.
func rawGood(cfg Config, c *conn, batch []string) {
	push := func() error { return cfg.Ingest("topic", batch) }
	if err := push(); err != nil {
		c.ack(0, StatusErr)
		return
	}
	c.ack(uint32(len(batch)), StatusOK)
}

// ackBuf queues acks and writes them together, the shape of the real
// server's per-connection ack buffer. Neither method commits anything,
// so queueing an OK ack must still be dominated by the Ingest it
// reports.
type ackBuf struct{ acks []byte }

func (b *ackBuf) queueAck(seq uint32, status byte) { b.acks = append(b.acks, byte(seq), status) }
func (b *ackBuf) writeAcks() error                 { b.acks = b.acks[:0]; return nil }

// queuedAckBeforeIngest appends the OK ack to the buffer before the
// frame is committed; the later write does not make it a commit.
func queuedAckBeforeIngest(cfg Config, b *ackBuf, f frame) {
	b.queueAck(f.seq, StatusOK) // want "OK ack is not dominated by a store commit"
	if err := cfg.Ingest(f.topic, f.lines); err != nil {
		b.queueAck(f.seq, StatusErr)
	}
	b.writeAcks()
}

// queuedAckGood appends the OK ack after Ingest and writes the buffer
// once per batch of frames.
func queuedAckGood(cfg Config, b *ackBuf, frames []frame) {
	for _, f := range frames {
		if err := cfg.Ingest(f.topic, f.lines); err != nil {
			b.queueAck(f.seq, StatusErr)
			continue
		}
		b.queueAck(f.seq, StatusOK)
	}
	b.writeAcks()
}
