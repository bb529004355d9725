// Package service is a stand-in for ldpjoin/internal/service: the
// lockorder analyzer builds a cross-function lock-acquisition graph
// over service/store/ingest packages and reports every edge of any
// cycle — two code paths that disagree about acquisition order can
// deadlock under load.
package service

import "sync"

// Server mirrors the production locking layers: a gate above mu.
type Server struct {
	mu   sync.Mutex
	opMu sync.Mutex
	gate sync.RWMutex
}

// Checkpoint establishes gate → mu.
func (s *Server) Checkpoint() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.mu.Lock() // want `acquiring .*Server\.mu while holding .*Server\.gate inverts the lock order`
	s.mu.Unlock()
}

// Handle inverts it: mu → gate. Either order alone is fine; both
// together are a deadlock waiting for the right interleaving.
func (s *Server) Handle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate.RLock() // want `acquiring .*Server\.gate while holding .*Server\.mu inverts the lock order`
	s.gate.RUnlock()
}

// Ordered1 and Ordered2 agree on opMu → mu; a consistent order draws
// no finding even though mu itself is tangled in the cycle above.
func (s *Server) Ordered1() {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *Server) Ordered2() {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}
