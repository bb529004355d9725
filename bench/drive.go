package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// A request is one call on the service's public surface, made in-process:
// no socket, so the numbers measure the program and not loopback TCP.
type request struct {
	method, target string
	body           []byte
	class          int // which latency series the reply belongs to

	// Writes only: the ingest column the request feeds, and whether it is
	// the advance of a plus column and not a report stream. The layer
	// replay reads these; the server sees only target and body.
	col     *ingestCol
	advance bool
}

type reply struct {
	code  int
	body  []byte
	start time.Time
	lat   time.Duration // ServeHTTP alone; building the request is outside it
}

// capture is the harness's ResponseWriter: it keeps the status and the
// body (the estimates in it are checked after the timed phase) and
// nothing else.
type capture struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (c *capture) Header() http.Header         { return c.hdr }
func (c *capture) WriteHeader(code int)        { c.code = code }
func (c *capture) Write(p []byte) (int, error) { c.buf = append(c.buf, p...); return len(p), nil }

// serve makes one call through h with c's writer and returns the reply.
// The body aliases c.buf from where this reply started.
func (c *capture) serve(h http.Handler, rq *request) reply {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, rq.target, body)
	if err != nil {
		panic(err) // targets are built by the harness
	}
	clear(c.hdr)
	c.code = http.StatusOK
	at := len(c.buf)
	start := time.Now()
	h.ServeHTTP(c, hr)
	lat := time.Since(start)
	return reply{code: c.code, body: c.buf[at:len(c.buf):len(c.buf)], start: start, lat: lat}
}

// call is serve for the untimed one-off requests of set-up and checking.
func call(h http.Handler, method, target string, body []byte) reply {
	c := &capture{hdr: http.Header{}}
	return c.serve(h, &request{method: method, target: target, body: body})
}

// drive sends reqs through h from `clients` goroutines and returns every
// reply and the wall time. The loop is closed: each client takes the next
// unsent request of the sequence, sends it, and waits for the reply
// before taking another, the way gateways and query planners do.
func drive(h http.Handler, clients int, reqs []request) ([]reply, time.Duration) {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &capture{hdr: http.Header{}}
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				replies[i] = w.serve(h, &reqs[i])
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}
