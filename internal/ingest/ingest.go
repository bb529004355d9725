// Package ingest is the one path through which the perturbed reports
// internal/service decodes from a request body are folded into
// LDPJoinSketch aggregation state.
//
// A column is one aggregator behind a mutex, and it folds every batch
// inline, in the caller's goroutine. Column and MatrixColumn are one
// generic column type instantiated over join and matrix reports;
// PlusColumn is three Columns plus a phase boundary. Every sketch the
// paper builds server-side is linear — an unfinalized cell holds an
// exact integer, each report adding ±1 (see core.Aggregator) — so folds
// commute exactly: the finalized sketch is byte-identical however a
// stream was cut into batches and however concurrent callers
// interleaved them. A fold is a few nanoseconds a report, so a column
// needs no worker pool of its own; callers that want parallelism get it
// from distinct columns, which fold concurrently.
//
// An Engine is the column factory: it fixes the protocol parameters
// and the hash family, and owns no goroutine.
//
// Federation: a Column is also the unit of cross-node scale-out. It can
// export a point-in-time copy of its unfinalized state while still
// collecting (State, or Capture as a mergeable snapshot) and fold in
// unfinalized state restored from another collector's snapshot
// (MergeAggregator) — both exact, because unfinalized cells are
// integers.
//
// The same exactness makes the column the source and the replay target
// of the durable column store (internal/store): a checkpoint is a
// Capture taken at a WAL cut, WAL recovery feeds logged report batches
// back through EnqueueAllPooled and checkpoints through MergeAggregator,
// and because folds commute exactly, the recovered column finalizes to
// a sketch byte-identical to the uninterrupted run.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// Options has nothing to tune. Kept for bench/ until ROADMAP 6(a).
type Options struct{}

// ErrFinalized is returned when reports are enqueued into, or a second
// finalization is requested of, an already finalized column.
var ErrFinalized = errors.New("ingest: column already finalized")

// Engine makes columns under one set of protocol parameters and one
// hash family. It owns no goroutine and is safe for concurrent use.
type Engine struct {
	params core.Params
	fam    *hashing.Family
}

// NewEngine returns an engine for the given protocol parameters and
// hash family.
func NewEngine(p core.Params, fam *hashing.Family, _ Options) *Engine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if fam.K() != p.K || fam.M() != p.M {
		panic("ingest: hash family does not match params")
	}
	return &Engine{params: p, fam: fam}
}

// QueueDepth is always 0: nothing queues, every fold lands before its
// enqueue returns. Kept for bench/ until ROADMAP 6(a)/(c).
func (e *Engine) QueueDepth() int { return 0 }

// Close does nothing: the engine owns no goroutine. Kept for bench/
// until ROADMAP 6(a)/(c).
func (e *Engine) Close() {}

// aggregator is what a column needs of a core aggregator. Every sketch
// the paper builds server-side is linear — an unfinalized cell is an
// integer sum of ±1 reports — so fold, cross-node merge and drain are
// the same operations for every kind; only the report type R, the
// aggregator A and the finalized sketch S differ.
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
	newAgg   func() A                   // an empty aggregator under the column's params and families
	check    func(A) error              // nil when the aggregator may merge into the column
	put      func([]R)                  // returns a consumed batch to its protocol pool
	snapshot func(A) *protocol.Snapshot // wraps unfinalized state without copying
}

// column is one logical sketch under construction: one aggregator,
// folded into under mu. It is safe for concurrent use.
//
// The aggregator is allocated lazily on the first fold (or adopted from
// the first merge), so creating a column is cheap and a column that
// never sees traffic never pays for cells.
type column[R any, A aggregator[R, A, S], S any] struct {
	kind columnKind[R, A]
	n    atomic.Int64 // reports folded or merged; read without mu

	mu        sync.Mutex
	agg       A
	live      bool // agg is set: by the first fold, or an adopted merge
	finalized bool
	err       error // the first out-of-bounds fold; refuses everything after it
}

func newColumn[R any, A aggregator[R, A, S], S any](kind columnKind[R, A]) *column[R, A, S] {
	return &column[R, A, S]{kind: kind}
}

// refusal is why the column takes no more input, or nil. Callers hold
// c.mu.
func (c *column[R, A, S]) refusal() error {
	if c.finalized {
		return ErrFinalized
	}
	return c.err
}

// Column is one single-attribute LDPJoinSketch under construction.
type Column = column[core.Report, *core.Aggregator, *core.Sketch]

// NewColumn creates an empty column aggregating under the engine's own
// hash family (join attribute 0 of a chain deployment).
func (e *Engine) NewColumn() *Column {
	return e.NewColumnWithFamily(e.fam)
}

// NewColumnWithFamily creates an empty column aggregating under fam
// instead of the engine's family — the scalar end column of a chain
// whose join attribute is not attribute 0. The family must share the
// engine's dimensions (the sketch shape is per-engine; only the hash
// functions differ per attribute).
func (e *Engine) NewColumnWithFamily(fam *hashing.Family) *Column {
	if fam.K() != e.params.K || fam.M() != e.params.M {
		panic("ingest: column family does not match engine params")
	}
	p := e.params
	return newColumn(columnKind[core.Report, *core.Aggregator]{
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

// EnqueueAllPooled folds a set of batches into the column, in the
// caller's goroutine, one AddBatch call per batch so the per-report loop
// runs inside core on the concrete aggregator. The whole set folds under
// the column mutex, so the call is atomic with respect to Finalize and
// State: they see every batch of a request or none of it.
// Each report is bounds-checked as it folds. A report outside the sketch
// (or with an invalid sign) fails the call with AddBatch's error and
// poisons the column: every later call, Finalize included, returns that
// error, so such a report never yields a sketch.
//
// This is the one enqueue, and its ownership contract is total: the
// batches come from the protocol batch pool (BatchReader.Next,
// DecodeReportsPayload and their matrix counterparts) or are otherwise
// the caller's to give away, and a successful call recycles every one
// into the kind's pool. The caller must not read, reuse, or re-enqueue a
// batch after a successful call, because its backing array may already
// be carrying the next decoded batch. On error nothing was recycled and
// the batches remain the caller's.
func (c *column[R, A, S]) EnqueueAllPooled(batches [][]R) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refusal(); err != nil {
		return err
	}
	for _, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if !c.live {
			c.agg, c.live = c.kind.newAgg(), true
		}
		if err := c.agg.AddBatch(batch); err != nil {
			c.err = err
			return err
		}
		c.n.Add(int64(len(batch)))
	}
	for _, batch := range batches {
		c.kind.put(batch)
	}
	return nil
}

// N returns the number of reports folded or merged so far.
func (c *column[R, A, S]) N() int64 { return c.n.Load() }

// Settle does nothing: every fold lands before its EnqueueAllPooled
// call returns. Kept for bench/ until ROADMAP 6(a)/(c).
func (c *column[R, A, S]) Settle() {}

// drain retires the column — no further enqueue, merge, or State call
// succeeds — and returns its unfinalized aggregator (a fresh empty one
// for an untouched column, so an empty column still finalizes). It
// returns the poisoning error if any enqueued report was out of bounds,
// or ErrFinalized on a second drain.
func (c *column[R, A, S]) drain() (A, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var none A
	if c.finalized {
		return none, ErrFinalized
	}
	c.finalized = true
	if c.err != nil {
		return none, c.err
	}
	if !c.live {
		return c.kind.newAgg(), nil
	}
	return c.agg, nil
}

// Finalize drains the column and restores the sketch. The column cannot
// be used afterwards. It returns an error if any enqueued report was out
// of bounds, or ErrFinalized on a second call.
func (c *column[R, A, S]) Finalize() (S, error) {
	total, err := c.drain()
	if err != nil {
		var none S
		return none, err
	}
	return total.Finalize(), nil
}

// State copies the column's current aggregation state into a fresh
// unfinalized aggregator without consuming the column: a point-in-time
// export for live federation pulls and checkpoints. The copy runs under
// the column mutex, so it holds exactly the batches whose
// EnqueueAllPooled calls returned before it, and it briefly blocks
// concurrent enqueues.
func (c *column[R, A, S]) State() (A, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refusal(); err != nil {
		var none A
		return none, err
	}
	total := c.kind.newAgg()
	if c.live {
		total.Merge(c.agg)
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

// MergeAggregator folds an unfinalized aggregator — typically restored
// from another collector's snapshot — into the column. The merge is
// exact: unfinalized cells are integer sums, so a column fed by merges
// finalizes byte-identically to one fed the underlying reports. It
// follows the enqueue lifecycle (ErrFinalized after Finalize, atomic
// with respect to it) and consumes agg: an untouched column
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
	defer c.mu.Unlock()
	if err := c.refusal(); err != nil {
		return err
	}
	n := int64(agg.N())
	if c.live {
		c.agg.Merge(agg)
	} else {
		c.agg, c.live = agg, true
	}
	c.n.Add(n)
	return nil
}
