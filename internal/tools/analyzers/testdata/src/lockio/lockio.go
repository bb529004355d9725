// Package lockio exercises the lockio analyzer: blocking I/O while a
// sync.Mutex or sync.RWMutex is held.
package lockio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
)

type server struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	state map[string]int
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// The PR 5 bug shape: handleStatus held the lifecycle mutex across
// writeJSON via a deferred unlock, so a parked client socket write
// stalled every ingest request queued behind the lock.
func (s *server) deferredUnlockAcrossWrite(w http.ResponseWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, 200, s.state) // want `call to writeJSON while s\.mu is held`
}

func (s *server) explicitHoldAcrossWrite(w http.ResponseWriter) {
	s.mu.Lock()
	writeJSON(w, 200, s.state) // want `call to writeJSON while s\.mu is held`
	s.mu.Unlock()
}

// writeAPIError is the service layer's one refusal writer; it encodes to
// the client socket like writeJSON.
func writeAPIError(w http.ResponseWriter, err error) {
	writeJSON(w, 500, err.Error())
}

// The shape the operations rule out by returning their refusals: an
// error answered while the column's operation lock is still held.
func (s *server) refusalUnderLock(w http.ResponseWriter, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		writeAPIError(w, err) // want `call to writeAPIError while s\.mu is held`
	}
}

// The PR 5 fix shape: snapshot under the lock, release, then encode.
func (s *server) snapshotThenWrite(w http.ResponseWriter) {
	s.mu.Lock()
	snapshot := make(map[string]int, len(s.state))
	for k, v := range s.state {
		snapshot[k] = v
	}
	s.mu.Unlock()
	writeJSON(w, 200, snapshot)
}

// An unlock on an early-return path does not release the fallthrough
// path: the write below still runs under the lock.
func (s *server) earlyReturnUnlock(w http.ResponseWriter, bad bool) {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return
	}
	_, _ = w.Write([]byte("ok")) // want `blocking w\.Write while s\.mu is held`
	s.mu.Unlock()
}

// A read lock is still a lock: a stalled write parks every writer
// waiting behind the RLock holder.
func (s *server) readLockAcrossHeader(w http.ResponseWriter) {
	s.rw.RLock()
	w.WriteHeader(204) // want `blocking w\.WriteHeader while s\.rw is held`
	s.rw.RUnlock()
}

func (s *server) connWrite(c net.Conn) {
	s.mu.Lock()
	_, _ = c.Write([]byte("x")) // want `blocking c\.Write while s\.mu is held`
	s.mu.Unlock()
}

func (s *server) fileSync(f *os.File) {
	s.mu.Lock()
	_ = f.Sync() // want `file Sync while s\.mu is held`
	s.mu.Unlock()
}

func (s *server) fprintfToResponse(w http.ResponseWriter) {
	s.mu.Lock()
	fmt.Fprintf(w, "%d", len(s.state)) // want `fmt\.Fprintf to a blocking writer while s\.mu is held`
	s.mu.Unlock()
}

func (s *server) bufioFlush(bw *bufio.Writer) {
	s.mu.Lock()
	_ = bw.Flush() // want `blocking bw\.Flush while s\.mu is held`
	s.mu.Unlock()
}

func (s *server) encoderUnderLock(w http.ResponseWriter) {
	enc := json.NewEncoder(w)
	s.mu.Lock()
	_ = enc.Encode(s.state) // want `json\.Encoder\.Encode`
	s.mu.Unlock()
}

// A wrapper that implements http.ResponseWriter is just as blocking as
// the ResponseWriter it wraps.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *server) wrappedWriter(w *statusWriter) {
	s.mu.Lock()
	_, _ = w.Write([]byte("ok")) // want `blocking w\.Write while s\.mu is held`
	s.mu.Unlock()
}

// A promoted Lock from an embedded mutex counts too.
type registry struct {
	sync.Mutex
	entries map[string]int
}

func (r *registry) embeddedMutex(w http.ResponseWriter) {
	r.Lock()
	writeJSON(w, 200, r.entries) // want `call to writeJSON while r is held`
	r.Unlock()
}

// In-memory sinks are not blocking I/O.
func (s *server) bufferUnderLock() []byte {
	var buf bytes.Buffer
	s.mu.Lock()
	fmt.Fprintf(&buf, "%d", len(s.state))
	s.mu.Unlock()
	return buf.Bytes()
}

// A goroutine does not run under the spawner's locks; its body is
// scanned as its own function.
func (s *server) spawned(w http.ResponseWriter) {
	s.mu.Lock()
	go func() {
		writeJSON(w, 200, nil)
	}()
	s.mu.Unlock()
}

// An intentional hold is waived in place, with its reason.
func (s *server) waived(w http.ResponseWriter) {
	s.mu.Lock()
	//ldpjoinvet:ignore lockio single-threaded startup path, nothing can contend yet
	_, _ = w.Write([]byte("ok"))
	s.mu.Unlock()
}
