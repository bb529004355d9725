package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The layer replay drives one trial's inputs through the layers' exported
// functions in the order the handlers call them, against the harness's
// own store and engine built with the server's options, with a span
// around every call. It is where the per-layer times come from: the
// program itself is not instrumented.

// layerCols is the in-memory side of a replay: one engine and the
// columns of the ingest shape on it, as registerPending builds them.
type layerCols struct {
	w    *world
	eng  *ingest.Engine
	join map[string]*ingest.Column
	plus map[string]*ingest.PlusColumn
}

func newLayerCols(w *world) *layerCols {
	lc := &layerCols{w: w, eng: ingest.NewEngine(w.cfg.params, w.fams[0], ingest.Options{}),
		join: make(map[string]*ingest.Column), plus: make(map[string]*ingest.PlusColumn)}
	for _, col := range w.ingestCols {
		if col.kind == protocol.KindPlus {
			lc.plus[col.name] = lc.eng.NewPlusColumn(w.famS, w.famG)
		} else {
			lc.join[col.name] = lc.eng.NewColumnWithFamily(w.fams[0])
		}
	}
	return lc
}

// replayIngest is handleReports → handleFinalize → recovery, layer by
// layer: decode, WAL append, enqueue for every request of the trial;
// settle, state copy and finalize per column; then the store is closed
// without a checkpoint (a crash, to the store), reopened and recovered
// into a second engine, whose columns are finalized and persisted. Both
// sets of finalized columns must export what the servers exported.
func (r *run) replayIngest() (depthMax int, err error) {
	w, tr, p := r.w, r.tr, r.w.cfg.params
	dir, err := os.MkdirTemp(r.tmp, "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, p, w.seed, r.storeOptions())
	if err != nil {
		return 0, err
	}
	defer func() { st.Close() }()
	lc := newLayerCols(w)
	defer lc.eng.Close()

	for i, rq := range append(append([]request(nil), w.prep...), w.ingest...) {
		name := rq.col.name
		if rq.advance {
			if err := lc.advance(st, name); err != nil {
				return 0, err
			}
			continue
		}
		root := tr.begin("replay.reports", i, 0)
		id := tr.begin("protocol.decode", i, root)
		kind, group, batches, n, err := decodeBody(rq.body, p)
		tr.end(id, n)
		if err != nil {
			return 0, err
		}
		enqueue := "ingest.enqueue"
		if kind == protocol.KindPlus {
			enqueue = "ingest.enqueue_plus"
		}
		tr.do("store.append", i, root, n, func() {
			if kind == protocol.KindPlus {
				err = st.AppendPlusReports(name, 0, group, batches)
			} else {
				err = st.AppendReports(name, 0, batches)
			}
		})
		if err != nil {
			return 0, err
		}
		tr.do(enqueue, i, root, n, func() {
			if kind == protocol.KindPlus {
				err = lc.plus[name].EnqueueAllPooled(group, batches)
			} else {
				err = lc.join[name].EnqueueAllPooled(batches)
			}
		})
		if err != nil {
			return 0, err
		}
		tr.end(root, n)
		depthMax = max(depthMax, lc.eng.QueueDepth())
	}
	for _, col := range w.ingestCols {
		if jc, ok := lc.join[col.name]; ok {
			tr.do("ingest.settle", 0, 0, int(jc.N()), jc.Settle)
			tr.do("ingest.state", 0, 0, 1, func() { _, err = jc.State() })
			if err != nil {
				return 0, err
			}
		}
	}
	walBytes := st.Stats().Bytes
	if err := r.finalizeLayerCols(lc, st, false); err != nil {
		return 0, err
	}

	// Crash and recover: Store.Close checkpoints nothing, so the reopened
	// store replays the whole log into a fresh engine.
	if err := st.Close(); err != nil {
		return 0, err
	}
	tr.do("store.open", 0, 0, 1, func() { st, err = store.Open(dir, p, w.seed, r.storeOptions()) })
	if err != nil {
		return 0, err
	}
	lc2 := newLayerCols(w)
	defer lc2.eng.Close()
	rec := tr.begin("store.recover", 0, 0)
	_, err = st.Recover(&replayer{lc: lc2, tr: tr, parent: rec})
	tr.end(rec, int(walBytes))
	if err != nil {
		return 0, err
	}
	return depthMax, r.finalizeLayerCols(lc2, st, true)
}

// decodeBody is the decode half of handleReports: header, reader by
// kind, then batches of DefaultBatchSize from the pool.
func decodeBody(body []byte, p core.Params) (kind protocol.Kind, group protocol.PlusGroup, batches [][]core.Report, n int, err error) {
	br := bufio.NewReader(bytes.NewReader(body))
	h, err := protocol.ReadHeader(br)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	var rd *protocol.BatchReader
	if h.Kind == protocol.KindPlus {
		rd, group, err = protocol.NewPlusBatchReaderFrom(br, h, p)
	} else {
		rd, err = protocol.NewBatchReaderFrom(br, h, p)
	}
	if err != nil {
		return 0, 0, nil, 0, err
	}
	for {
		batch, err := rd.Next(protocol.DefaultBatchSize)
		if err == io.EOF {
			return h.Kind, group, batches, rd.Count(), nil
		}
		if err != nil {
			return 0, 0, nil, 0, err
		}
		batches = append(batches, batch)
	}
}

// advance is handleAdvance's effect on a plus column: log the advance,
// then flip the phase, with the catalog's frequent-item set.
func (lc *layerCols) advance(st *store.Store, name string) error {
	w := lc.w
	if err := st.AppendPlusAdvance(name, 0, w.cfg.domain, w.cfg.theta, w.fi); err != nil {
		return err
	}
	_, err := lc.plus[name].Advance(w.cfg.domain, w.cfg.theta, w.fi)
	return err
}

// finalizeLayerCols is handleFinalize per column: finalize in the
// engine, hold the export against the reference, and (persist) write
// final.snap through the store.
func (r *run) finalizeLayerCols(lc *layerCols, st *store.Store, persist bool) error {
	tr := r.tr
	for _, col := range r.w.ingestCols {
		var export []byte
		var err error
		if pc, ok := lc.plus[col.name]; ok {
			if !pc.Advanced() {
				if err := lc.advance(st, col.name); err != nil {
					return err
				}
			}
			state, err := pc.Finalize()
			if err != nil {
				return err
			}
			snap := protocol.PlusSnapshotOfState(state)
			if persist {
				if err := st.FinalizePlus(col.name, 0, snap); err != nil {
					return err
				}
			}
			export, err = protocol.EncodePlusSnapshot(snap)
			if err != nil {
				return err
			}
		} else {
			var sk *core.Sketch
			tr.do("ingest.finalize", 0, 0, 1, func() { sk, err = lc.join[col.name].Finalize() })
			if err != nil {
				return err
			}
			if persist {
				tr.do("store.finalize", 0, 0, 1, func() { err = st.Finalize(col.name, 0, protocol.SnapshotOfSketch(sk)) })
				if err != nil {
					return err
				}
			}
			if export, err = sk.MarshalBinary(); err != nil {
				return err
			}
		}
		r.attempted++
		if !bytes.Equal(export, r.expected[col.name]) {
			r.fail("column %s: the layer replay's export (after recovery: %v) differs from the serial reference fold", col.name, persist)
		}
	}
	return nil
}

// replayer receives what Store.Recover reads back and enqueues it the
// way the service's recoverer does. Each callback is a child span of the
// recover span, so that span's self time is the store's own share: read,
// CRC, decode.
type replayer struct {
	lc     *layerCols
	tr     *tracer
	parent int
}

var errUnexpected = errors.New("the replay's store holds only report and advance records")

// rebatch cuts a record's reports at the live ingest granularity, as
// RecoverReports in the service does.
func rebatch(reports []core.Report) [][]core.Report {
	var batches [][]core.Report
	for len(reports) > 0 {
		n := min(protocol.DefaultBatchSize, len(reports))
		batches = append(batches, reports[:n])
		reports = reports[n:]
	}
	return batches
}

func (rp *replayer) RecoverReports(col store.ColumnInfo, reports []core.Report) (err error) {
	n := len(reports)
	rp.tr.do("replay.recover_enqueue", 0, rp.parent, n, func() {
		err = rp.lc.join[col.Name].EnqueueAllPooled(rebatch(reports))
	})
	return err
}

func (rp *replayer) RecoverPlusReports(col store.ColumnInfo, group protocol.PlusGroup, reports []core.Report) (err error) {
	n := len(reports)
	rp.tr.do("replay.recover_enqueue", 0, rp.parent, n, func() {
		err = rp.lc.plus[col.Name].EnqueueAllPooled(group, rebatch(reports))
	})
	return err
}

func (rp *replayer) RecoverPlusAdvance(col store.ColumnInfo, domain uint64, theta float64, fi []uint64) error {
	if fi == nil {
		fi = []uint64{} // nil would ask the column to propose its own set
	}
	_, err := rp.lc.plus[col.Name].Advance(domain, theta, fi)
	return err
}

func (rp *replayer) RecoverFinalized(store.ColumnInfo, *protocol.Snapshot) error {
	return fmt.Errorf("finalized column: %w", errUnexpected)
}
func (rp *replayer) RecoverCheckpoint(store.ColumnInfo, *protocol.Snapshot) error {
	return fmt.Errorf("checkpoint: %w", errUnexpected)
}
func (rp *replayer) RecoverMatrixReports(store.ColumnInfo, []core.MatrixReport) error {
	return fmt.Errorf("matrix reports: %w", errUnexpected)
}
func (rp *replayer) RecoverMerge(store.ColumnInfo, *protocol.Snapshot) error {
	return fmt.Errorf("merge: %w", errUnexpected)
}
func (rp *replayer) RecoverPlusFinalized(store.ColumnInfo, *protocol.PlusSnapshot) error {
	return fmt.Errorf("finalized plus column: %w", errUnexpected)
}
func (rp *replayer) RecoverPlusCheckpoint(store.ColumnInfo, *protocol.PlusSnapshot) error {
	return fmt.Errorf("plus checkpoint: %w", errUnexpected)
}
func (rp *replayer) RecoverPlusMerge(store.ColumnInfo, *protocol.PlusSnapshot) error {
	return fmt.Errorf("plus merge: %w", errUnexpected)
}

// Most query ops a replay times per kind. The cold shapes stay under it,
// so their replay is the whole trial in order — chain joins sweeping the
// matrix state between the pair joins, as on the server, which is what
// decides how warm a sketch is when its turn comes. A dash trial asks
// its four chain paths thousands of times; computed cold, each is 25 ms.
var replayCap = [numOps]int{opJoin: 4000, opFreq: 4000, opChain: 24, opPlus: 1000}

// replayQueries is handleJoin and handleFrequency below the cache: the
// estimator of each op of the trial, called directly on the reference
// sketches.
func (r *run) replayQueries() error {
	var done [numOps]int
	for i := range r.w.query {
		op := &r.w.query[i]
		if done[op.class] >= replayCap[op.class] {
			continue
		}
		done[op.class]++
		var err error
		r.tr.do(estimatorSpans[op.class], i, 0, 1, func() { _, err = r.w.estimate(op) })
		if err != nil {
			return err
		}
	}
	return nil
}

var estimatorSpans = [numOps]string{opJoin: "core.joinsize", opFreq: "core.frequency", opChain: "core.chain_estimate", opPlus: "core.plusjoin"}
