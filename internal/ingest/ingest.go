// Package ingest implements the sharded streaming ingestion engine of
// the aggregation server: the one path through which perturbed reports —
// whether they arrive from the wire or from a locally simulated
// population — are folded into LDPJoinSketch aggregation state.
//
// An Engine owns a bounded task queue and a fixed pool of worker
// goroutines. Ingestion state is split into per-shard aggregators by one
// generic column type — Column and MatrixColumn are its instantiations
// over join and matrix reports, PlusColumn three Columns plus a phase
// boundary; batches of reports are routed round-robin to shards and
// folded concurrently, and Finalize merges the shards in shard order
// before restoring the sketch. Because an unfinalized aggregator cell
// holds an exact integer (each report contributes ±1, see
// core.Aggregator), shard merging is exact and order-independent: the
// finalized sketch is byte-identical regardless of the worker count, the
// queue depth, or how batches were interleaved across shards. Sharding
// is therefore pure parallelism — it costs no accuracy and no extra
// privacy budget, which is exactly the mergeability the paper's linear
// sketches are chosen for.
//
// The engine also hosts the deterministic parallel simulation build that
// used to live in core.CollectParallel: Simulate cuts a column of private
// values into Options.Shards contiguous chunks, derives one client RNG
// seed per chunk from (seed, chunk index), and perturbs + folds the
// chunks on the worker pool. For a fixed (seed, shards) pair the result
// is a deterministic function of the data — independent of Workers and
// of goroutine scheduling.
//
// Backpressure: EnqueueAllPooled and the simulation builders block while
// the task queue is full, so a fast producer (an HTTP handler, a TCP
// collector) is throttled to the speed of the fold workers instead of
// buffering without bound.
//
// Federation: a Column is also the unit of cross-node scale-out. It can
// drain into a mergeable snapshot instead of a finalized sketch
// (Snapshot), export a point-in-time copy while still collecting
// (State), and fold in unfinalized state restored from another
// collector's snapshot (MergeAggregator) — all exact, because
// unfinalized cells are integers.
//
// The same exactness makes the engine the replay target of the durable
// column store (internal/store): WAL recovery feeds logged report
// batches back through EnqueueAllPooled and checkpoints through
// MergeAggregator, and because folds commute exactly, the recovered
// column finalizes to a sketch byte-identical to the uninterrupted run —
// regardless of how shard counts or batch interleavings differ across
// the restart.
package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// Options tunes an Engine. The zero value selects defaults.
type Options struct {
	// Shards is the number of per-column partial aggregators and the
	// number of chunks a simulated column is cut into. It is part of the
	// deterministic identity of Simulate: for a fixed (seed, Shards) pair
	// the simulated sketch is reproducible. Wire ingestion is
	// shard-count-independent (integral cells merge exactly). <= 0
	// selects GOMAXPROCS.
	Shards int
	// Workers is the number of fold goroutines. It never affects results,
	// only throughput. <= 0 selects GOMAXPROCS.
	Workers int
	// Queue bounds the task queue (in batches); producers block when it
	// is full. <= 0 selects 4×Workers.
	Queue int
}

func (o Options) normalized() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 4 * o.Workers
	}
	return o
}

var (
	// ErrClosed is returned when work is submitted to a closed engine.
	ErrClosed = errors.New("ingest: engine closed")
	// ErrFinalized is returned when reports are enqueued into, or a
	// second finalization is requested of, an already finalized column.
	ErrFinalized = errors.New("ingest: column already finalized")
)

// Engine is a worker pool folding report batches into sharded
// aggregation state. It is safe for concurrent use.
type Engine struct {
	params core.Params
	fam    *hashing.Family
	opts   Options

	tasks   chan func()
	workers sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// NewEngine starts an engine for the given protocol parameters and hash
// family. Close must be called to release the workers.
func NewEngine(p core.Params, fam *hashing.Family, opts Options) *Engine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if fam.K() != p.K || fam.M() != p.M {
		panic("ingest: hash family does not match params")
	}
	e := &Engine{
		params: p,
		fam:    fam,
		opts:   opts.normalized(),
	}
	e.tasks = make(chan func(), e.opts.Queue)
	for i := 0; i < e.opts.Workers; i++ {
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			for f := range e.tasks {
				f()
			}
		}()
	}
	return e
}

// Params returns the protocol parameters the engine folds under.
func (e *Engine) Params() core.Params { return e.params }

// Family returns the public hash family shared with the clients.
func (e *Engine) Family() *hashing.Family { return e.fam }

// Options returns the engine's normalized options.
func (e *Engine) Options() Options { return e.opts }

// QueueDepth returns the number of fold tasks currently queued behind
// the workers — the live backpressure signal (/metrics gauges it
// against Options().Queue).
func (e *Engine) QueueDepth() int { return len(e.tasks) }

// submit schedules f on the worker pool, blocking while the queue is
// full (backpressure).
func (e *Engine) submit(f func()) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.tasks <- f
	return nil
}

// submitAll schedules every task or none: the closed check happens once
// under the lock, so a concurrent Close cannot interleave between the
// sends (queued tasks survive Close — workers drain the queue first).
func (e *Engine) submitAll(fs []func()) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	for _, f := range fs {
		e.tasks <- f
	}
	return nil
}

// Close drains the queued work and stops the workers. Columns may still
// be finalized afterwards; new enqueues and Simulate calls fail with
// ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.tasks)
	e.mu.Unlock()
	e.workers.Wait()
}

// aggregator is what a column needs of a core aggregator. Every sketch
// the paper builds server-side is linear — an unfinalized cell is an
// integer sum of ±1 reports — so fold, shard merge, cross-node merge and
// drain are the same operations for every kind; only the report type R,
// the aggregator A and the finalized sketch S differ.
type aggregator[R, A, S any] interface {
	AddBatch([]R) error
	Merge(A)
	Finalize() S
	N() float64
	Done() bool
}

// columnKind is the per-kind configuration of a column: everything the
// generic column cannot derive from its type parameters.
type columnKind[R, A any] struct {
	shards   int                        // partial aggregators per column
	newAgg   func() A                   // an empty aggregator under the column's params and families
	check    func(A) error              // nil when the aggregator may merge into the column
	put      func([]R)                  // returns a consumed batch to its protocol pool
	snapshot func(A) *protocol.Snapshot // wraps unfinalized state without copying
}

// column is one logical sketch under construction: kind.shards partial
// aggregators fed round-robin by EnqueueAllPooled. It is safe for
// concurrent use.
//
// Each shard's aggregator is allocated lazily on its first fold (or
// adopted from the first merge routed to it), so creating a column is
// cheap and a column that never sees traffic never pays for cells —
// which matters most for matrix columns, whose aggregator is K·M1·M2
// float64s.
type column[R any, A aggregator[R, A, S], S any] struct {
	eng    *Engine
	kind   columnKind[R, A]
	shards []shard[A]
	next   atomic.Uint64
	n      atomic.Int64

	mu        sync.Mutex
	finalized bool
	// wg tracks outstanding folds so Finalize can drain them. Add happens
	// under mu before the finalized flag cuts off new work, so it never
	// races Wait.
	wg sync.WaitGroup

	errMu sync.Mutex
	err   error
}

type shard[A any] struct {
	mu   sync.Mutex
	agg  A
	live bool // agg is set: by the shard's first fold, or an adopted merge
}

func newColumn[R any, A aggregator[R, A, S], S any](e *Engine, kind columnKind[R, A]) *column[R, A, S] {
	return &column[R, A, S]{eng: e, kind: kind, shards: make([]shard[A], kind.shards)}
}

// Column is one single-attribute LDPJoinSketch under construction:
// Options.Shards partial aggregators on the engine's worker pool.
type Column = column[core.Report, *core.Aggregator, *core.Sketch]

// NewColumn creates an empty column on the engine, aggregating under the
// engine's own hash family (join attribute 0 of a chain deployment).
func (e *Engine) NewColumn() *Column {
	return e.NewColumnWithFamily(e.fam)
}

// NewColumnWithFamily creates an empty column aggregating under fam
// instead of the engine's family — the scalar end column of a chain
// whose join attribute is not attribute 0. The family must share the
// engine's dimensions (the sketch shape, queue, and worker pool are all
// per-engine; only the hash functions differ per attribute).
func (e *Engine) NewColumnWithFamily(fam *hashing.Family) *Column {
	if fam.K() != e.params.K || fam.M() != e.params.M {
		panic("ingest: column family does not match engine params")
	}
	p := e.params
	return newColumn(e, columnKind[core.Report, *core.Aggregator]{
		shards: e.opts.Shards,
		newAgg: func() *core.Aggregator { return core.NewAggregator(p, fam) },
		check: func(agg *core.Aggregator) error {
			if agg.Params() != p || agg.Family().Seed() != fam.Seed() {
				return fmt.Errorf("ingest: aggregator (k=%d, m=%d, ε=%g, seed=%d) does not match column (k=%d, m=%d, ε=%g, seed=%d)",
					agg.Params().K, agg.Params().M, agg.Params().Epsilon, agg.Family().Seed(),
					p.K, p.M, p.Epsilon, fam.Seed())
			}
			return nil
		},
		put:      protocol.PutReportBatch,
		snapshot: protocol.SnapshotOfAggregator,
	})
}

// EnqueueAllPooled routes a set of batches to shards and schedules the
// folds, blocking while the engine queue is full. The call is atomic
// with respect to Finalize and Close: either every batch is scheduled (a
// concurrent Finalize drains them all before merging) or none is and
// ErrFinalized/ErrClosed is returned — a multi-batch request is never
// half-applied. Reports are bounds-checked on the worker: a report
// outside the sketch (or with an invalid sign) is dropped and surfaces
// as an error from Finalize, which then yields no sketch at all.
//
// This is the one enqueue, and its ownership contract is total: the
// batches come from the protocol batch pool (BatchReader.Next,
// DecodeReportsPayload and their matrix counterparts) or are otherwise
// the caller's to give away, and once a fold has consumed a batch it is
// recycled into the kind's pool. The caller must not read, reuse, or
// re-enqueue a batch after a successful call, because its backing array
// may already be carrying the next decoded batch. On error the batches
// were not scheduled and remain the caller's.
func (c *column[R, A, S]) EnqueueAllPooled(batches [][]R) error {
	var folds []func()
	var total int64
	for _, batch := range batches {
		if len(batch) == 0 {
			c.kind.put(batch)
			continue
		}
		folds = append(folds, c.fold(batch))
		total += int64(len(batch))
	}
	if len(folds) == 0 {
		return nil
	}

	c.mu.Lock()
	if c.finalized {
		c.mu.Unlock()
		return ErrFinalized
	}
	c.wg.Add(len(folds))
	c.mu.Unlock()

	if err := c.eng.submitAll(folds); err != nil {
		c.wg.Add(-len(folds))
		return err
	}
	c.n.Add(total)
	return nil
}

// nextShard picks the shard the next fold or merge lands in.
func (c *column[R, A, S]) nextShard() *shard[A] {
	return &c.shards[c.next.Add(1)%uint64(len(c.shards))]
}

// fold builds the worker task adding one batch to the next shard: one
// AddBatch call, so the per-report loop runs inside core on the concrete
// aggregator. The fold is where the batch dies — EnqueueAllPooled
// transferred total ownership — so after the reports land in the shard
// the batch goes back to the protocol batch pool for the next decode.
func (c *column[R, A, S]) fold(batch []R) func() {
	sh := c.nextShard()
	return func() {
		defer c.wg.Done()
		sh.mu.Lock()
		if !sh.live {
			sh.agg, sh.live = c.kind.newAgg(), true
		}
		err := sh.agg.AddBatch(batch)
		sh.mu.Unlock()
		if err != nil {
			c.setErr(err)
		}
		c.kind.put(batch)
	}
}

// N returns the number of reports accepted so far, including batches
// still queued behind the workers. An accepted report only fails to
// reach the sketch if it is out of bounds — and in that case Finalize
// returns an error instead of a sketch, so N never silently disagrees
// with a finalized result.
func (c *column[R, A, S]) N() int64 { return c.n.Load() }

func (c *column[R, A, S]) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

func (c *column[R, A, S]) firstErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// drain retires the column — no further enqueue, merge, or State call
// succeeds — waits out the outstanding folds, and merges the populated
// shards in shard order into one unfinalized aggregator (reusing the
// first populated shard's state, so draining allocates nothing; an
// untouched column yields a fresh empty aggregator, so Snapshot of an
// empty column still works). It returns an error if any enqueued report
// was out of bounds, or ErrFinalized on a second drain.
func (c *column[R, A, S]) drain() (A, error) {
	var total A
	c.mu.Lock()
	if c.finalized {
		c.mu.Unlock()
		return total, ErrFinalized
	}
	c.finalized = true
	c.mu.Unlock()
	c.wg.Wait()

	if err := c.firstErr(); err != nil {
		return total, err
	}
	have := false
	for i := range c.shards {
		sh := &c.shards[i]
		if !sh.live {
			continue
		}
		if !have {
			total, have = sh.agg, true
			continue
		}
		total.Merge(sh.agg)
	}
	if !have {
		total = c.kind.newAgg()
	}
	return total, nil
}

// Finalize drains the column's outstanding folds, merges the shards in
// shard order, and restores the sketch. The column cannot be used
// afterwards. It returns an error if any enqueued report was out of
// bounds, or ErrFinalized on a second call.
func (c *column[R, A, S]) Finalize() (S, error) {
	total, err := c.drain()
	if err != nil {
		var none S
		return none, err
	}
	return total.Finalize(), nil
}

// Snapshot drains the column exactly like Finalize but stops before the
// debias-and-restore step, wrapping the merged unfinalized state as a
// mergeable snapshot. Because the merge reuses a shard's cells and the
// snapshot shares them, the per-shard aggregators drain straight into
// the snapshot with no intermediate copy. The column cannot be used
// afterwards; encode the snapshot before anything else touches it.
func (c *column[R, A, S]) Snapshot() (*protocol.Snapshot, error) {
	total, err := c.drain()
	if err != nil {
		return nil, err
	}
	return c.kind.snapshot(total), nil
}

// State copies the column's current aggregation state into a fresh
// unfinalized aggregator without consuming the column: a point-in-time
// export for live federation pulls. The copy is taken shard by shard
// under the shard locks, so it is an exact prefix of the ingested
// stream in per-shard order; reports still queued behind the workers at
// the moment of the call are not included (the returned aggregator's N
// reflects exactly the folded reports it contains). State holds the
// column lock for the duration of the copy, which briefly blocks
// concurrent enqueues and excludes the lock-free shard merge that
// Finalize and Snapshot perform after retiring the column.
func (c *column[R, A, S]) State() (A, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finalized {
		var none A
		return none, ErrFinalized
	}
	if err := c.firstErr(); err != nil {
		var none A
		return none, err
	}
	total := c.kind.newAgg()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.live {
			total.Merge(sh.agg)
		}
		sh.mu.Unlock()
	}
	return total, nil
}

// Capture is State wrapped as a mergeable snapshot: the point-in-time
// export in the form the store and the federation routes carry.
func (c *column[R, A, S]) Capture() (*protocol.Snapshot, error) {
	total, err := c.State()
	if err != nil {
		return nil, err
	}
	return c.kind.snapshot(total), nil
}

// Settle blocks until every fold accepted so far has landed in a
// shard. The caller must exclude concurrent EnqueueAllPooled and
// MergeAggregator calls for the duration — the service's checkpoint
// gate does — otherwise a new wg.Add races the wait. After Settle
// returns (under that exclusion), State is a complete copy of every
// accepted report, which is what lets a background checkpoint cover
// exactly the WAL records written so far.
func (c *column[R, A, S]) Settle() { c.wg.Wait() }

// MergeAggregator folds an unfinalized aggregator — typically restored
// from another collector's snapshot — into the column. The merge is
// exact: unfinalized cells are integer sums, so a column fed by merges
// finalizes byte-identically to one fed the underlying reports. It
// follows the enqueue lifecycle (ErrFinalized after Finalize/Snapshot,
// atomic with respect to both) and consumes agg: an untouched shard
// adopts it outright (zero copy), a populated one folds it in cell-wise;
// either way the caller must not use it afterwards.
func (c *column[R, A, S]) MergeAggregator(agg A) error {
	if agg.Done() {
		return fmt.Errorf("ingest: cannot merge a finalized aggregator")
	}
	if err := c.kind.check(agg); err != nil {
		return err
	}

	c.mu.Lock()
	if c.finalized {
		c.mu.Unlock()
		return ErrFinalized
	}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()

	// Read the count while agg is still private: once a shard adopts it,
	// a fold already queued for that shard adds to it concurrently, and
	// those reports were counted when they were enqueued.
	n := int64(agg.N())
	sh := c.nextShard()
	sh.mu.Lock()
	if sh.live {
		sh.agg.Merge(agg)
	} else {
		sh.agg, sh.live = agg, true
	}
	sh.mu.Unlock()
	c.n.Add(n)
	return nil
}

// Simulate builds a sketch over a column of private values on the worker
// pool, replacing the retired core.CollectParallel: the column is cut
// into Options.Shards fixed contiguous chunks, chunk w simulates its
// clients with a seed derived from (seed, w), and the partial
// aggregators are merged in chunk order before finalization. Chunk
// boundaries and seeds are functions of (len(values), seed, Shards)
// only, so the result is deterministic and independent of Workers and of
// goroutine scheduling.
func (e *Engine) Simulate(values []uint64, seed int64) (*core.Sketch, error) {
	shards := e.opts.Shards
	if shards > len(values) {
		shards = len(values)
	}
	if shards <= 1 {
		agg := core.NewAggregator(e.params, e.fam)
		agg.CollectColumn(values, rand.New(rand.NewSource(seed)))
		return agg.Finalize(), nil
	}

	parts := make([]*core.Aggregator, shards)
	var wg sync.WaitGroup
	chunk := (len(values) + shards - 1) / shards
	for w := 0; w < shards; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(values))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		err := e.submit(func() {
			defer wg.Done()
			agg := core.NewAggregator(e.params, e.fam)
			agg.CollectColumn(values[lo:hi], rand.New(rand.NewSource(shardSeed(seed, w))))
			parts[w] = agg
		})
		if err != nil {
			wg.Done()
			wg.Wait()
			return nil, err
		}
	}
	wg.Wait()

	var total *core.Aggregator
	for _, part := range parts {
		if part == nil {
			continue
		}
		if total == nil {
			total = part
			continue
		}
		total.Merge(part)
	}
	return total.Finalize(), nil
}

// shardSeed derives the client RNG seed of simulation chunk w. The
// derivation is identical to the retired core.CollectParallel, so
// sketches built by Simulate reproduce its output bit for bit.
func shardSeed(seed int64, w int) int64 {
	state := uint64(seed) ^ (uint64(w)+1)*0x9e3779b97f4a7c15
	return int64(hashing.SplitMix64(&state))
}
