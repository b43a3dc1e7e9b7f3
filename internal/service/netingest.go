package service

import (
	"errors"
	"fmt"
	"log"
	"net"

	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
)

// netIngest is the TCP listener's sink: Service.Ingest with degraded
// read-only mode translated to the wire's BUSY semantics, so clients
// back off and resend instead of treating shed frames as rejected.
func (s *Service) netIngest(topic string, lines []string) error {
	err := s.Ingest(topic, lines)
	if err != nil && errors.Is(err, logstore.ErrDegraded) {
		return fmt.Errorf("%w (%v)", netingest.ErrBusy, err)
	}
	return err
}

// StartNetIngest starts the streaming TCP ingest listener on addr
// (":7171", "127.0.0.1:0", ...) and returns the bound address. Frames
// are committed through the same synchronous group-commit path as
// Service.Ingest, so an OK ack on the wire means the batch took the
// store's durability path. The listener shares the service's metrics
// registry (bb_netingest_* families) and is drained and closed first
// thing in Close.
func (s *Service) StartNetIngest(addr string) (net.Addr, error) {
	s.netMu.Lock()
	closed := s.netClosed
	s.netMu.Unlock()
	if closed {
		return nil, errors.New("service: closed")
	}
	srv, err := netingest.Listen(addr, netingest.Config{
		Ingest:  s.netIngest,
		Metrics: &s.met.netIngest,
		Logf:    log.Printf,
	})
	if err != nil {
		return nil, err
	}
	s.netMu.Lock()
	if s.netClosed {
		// Close drained the listener list between the entry check and
		// here; this server would never be shut down, so shut it down
		// now instead of leaking it against closed stores.
		s.netMu.Unlock()
		srv.Close()
		return nil, errors.New("service: closed")
	}
	s.netServers = append(s.netServers, srv)
	s.netMu.Unlock()
	return srv.Addr(), nil
}
