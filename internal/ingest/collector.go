package ingest

import (
	"io"
	"net"
	"sync"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// collectorBatch is how many reports a connection decodes before folding
// a batch into the column.
const collectorBatch = 1024

// Collector is the TCP face of the ingest package: it serves
// connections carrying wire-format report streams and folds the decoded
// batches into one column, so many gateways fan into one sketch through
// the same pooled enqueue the HTTP service uses. It replaces the retired
// protocol.Collector, which funneled every report through a single
// aggregation goroutine.
type Collector struct {
	params core.Params
	col    *Column

	mu      sync.Mutex
	streams int
	lastErr error
}

// NewCollector returns a collector folding into one fresh column.
func NewCollector(p core.Params, fam *hashing.Family) *Collector {
	return &Collector{params: p, col: NewEngine(p, fam, Options{}).NewColumn()}
}

// ServeConn reads one report stream from conn until EOF and folds it
// into the collector's column. It is safe to call from multiple
// goroutines, one per connection: the caller owns the accept loop, and
// serving each accepted connection on its own goroutine lets every
// gateway stream at once.
func (c *Collector) ServeConn(conn net.Conn) error {
	defer conn.Close()
	err := c.ingest(conn)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.streams++
	if err != nil {
		c.lastErr = err
	}
	return err
}

func (c *Collector) ingest(r io.Reader) error {
	br, err := protocol.NewBatchReader(r, c.params)
	if err != nil {
		return err
	}
	for {
		batch, err := br.Next(collectorBatch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := c.col.EnqueueAllPooled([][]core.Report{batch}); err != nil {
			return err
		}
	}
}

// Streams returns the number of completed streams.
func (c *Collector) Streams() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams
}

// N returns the number of reports accepted so far.
func (c *Collector) N() int64 { return c.col.N() }

// Close returns the last stream error, if any. It is idempotent; no
// ServeConn call may be active or issued afterwards.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Finalize closes the collector and returns the merged sketch over
// everything the streams delivered.
func (c *Collector) Finalize() (*core.Sketch, error) {
	if err := c.Close(); err != nil {
		return nil, err
	}
	return c.col.Finalize()
}
