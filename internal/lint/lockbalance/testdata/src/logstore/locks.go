// Fixture for the lock analyzer's blocking check: blocking operations
// under a sync.Mutex/RWMutex — channel ops, select without default,
// net.Conn I/O, and Append* through the storage interfaces.
package logstore

import (
	"net"
	"sync"
)

type Store interface {
	Append(line string) error
	AppendBatch(lines []string) error
}

type hotBlock struct {
	lines []string
}

func (h *hotBlock) AppendBatch(lines []string) { h.lines = append(h.lines, lines...) }

type server struct {
	mu    sync.Mutex
	state sync.RWMutex
	ch    chan int
	store Store
	hot   *hotBlock
	conn  net.Conn
}

func (s *server) sendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while s.mu is held"
	s.mu.Unlock()
}

func (s *server) recvUnderLock() int {
	s.state.RLock()
	defer s.state.RUnlock()
	return <-s.ch // want "channel receive while s.state is held"
}

func (s *server) selectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while s.mu is held"
	case v := <-s.ch:
		_ = v
	case s.ch <- 0:
	}
}

// kick is the exempt non-blocking shape: select with a default.
func (s *server) kick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

func (s *server) rangeUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for v := range s.ch { // want "range over channel while s.mu is held"
		n += v
	}
	return n
}

func (s *server) connWriteUnderLock(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(b) // want "network I/O"
}

func (s *server) appendUnderLock(lines []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.AppendBatch(lines) // want "AppendBatch through the Store interface"
}

// appendHotUnderLock is the exempt concrete shape: the in-memory hot
// block buffers under the store's own lock by design.
func (s *server) appendHotUnderLock(lines []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hot.AppendBatch(lines)
}

// unlockEarly releases before blocking — no finding.
func (s *server) unlockEarly(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

// sendAfterBranchUnlock releases on the fast path only: the send on
// the other path still runs under s.mu. A source-order walk clears the
// lock at the first Unlock it meets and misses this send.
func (s *server) sendAfterBranchUnlock(v int, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return
	}
	s.ch <- v // want "channel send while s.mu is held"
	s.mu.Unlock()
}

// goroutineBody is a fresh scope: the literal runs unlocked.
func (s *server) goroutineBody(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- v
	}()
}

func (s *server) suppressed(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//bbvet:ignore lockbalance fixture exercises a counted suppression
	s.ch <- v
}
