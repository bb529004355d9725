package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The write path beneath the transport: register, and the three
// operations a collecting column can undergo — reports, advance, merge.
// Each is written once, takes no http.ResponseWriter or *http.Request,
// and returns its result or the refusal (an apiError). The HTTP handlers
// run them on live traffic and recoverer runs the same bodies on WAL
// replay: every server-side sketch is linear, so applying a mutation
// and applying it again after a crash are one operation, and the only
// difference is that replay finds s.st still nil — the records it is
// fed are already durable — exactly as an in-memory server does.
//
// One order, decided here and nowhere else:
//
//	opMu → check → WAL append → apply → result
//
// The apply is the fold itself, inline: every report of the request is
// in the column's aggregator when the operation returns. opMu is held by
// defer, so a refusal on any line releases it, and since nothing below a
// handler can write to a client, no response is ever written while a
// column lock is held: a parked client reading slowly cannot wedge a
// column's phase machinery (the lockio analyzer checks the handlers, and
// there is nothing left to check here). Append-before-apply is held by
// tests: TestReplayIsLive and the crash-recovery tests fail on a dropped
// append, TestOperationRefusals on a fold ahead of it.

// pendingColumn is a collecting column: its identity, the kind's column
// behind the one interface the operations are written over, and the
// lock that orders them.
type pendingColumn struct {
	name  string
	kind  protocol.Kind
	attr  int
	state column

	// opMu serializes the column's operations — report append+fold,
	// advance, merge — so the WAL is written in acceptance order. A plus
	// column depends on it: without it, a sample batch could pass the
	// phase gate, lose the race to a concurrent advance's WAL append, and
	// be logged after the advance record — which replay would then
	// reject. Join and matrix records commute, so for them the order is
	// merely harmless; appends to one column's log serialize on the log's
	// own mutex across the fsync anyway.
	//
	// opMu is also every exporter's exclusion point: CheckpointNow holds
	// it across (Rotate, state capture), and handleSnapshot across its
	// capture. Since each operation holds it across its (WAL append,
	// apply) pair, no operation can be between "durable in a covered
	// segment" and "visible to the capture" at the cut, so a checkpoint
	// can neither lose an acknowledged report nor double-count one on
	// replay.
	opMu sync.Mutex
}

// errServerClosed is the retryable refusal of a server that is shutting
// down.
var errServerClosed error = statusError(http.StatusServiceUnavailable, "server is shut down")

// register looks up or creates the collecting column a reports or merge
// request names, under the same lock acquisition as the closed,
// finalized, and kind/attribute checks — and before any WAL append. The
// order is load-bearing twice over: a column is never created after
// Shutdown has snapshotted the pending map (closed is re-checked here,
// under the lock that set it), and every WAL record belongs to a
// registered column — which is what lets the shutdown checkpoints cover
// every column with log records.
//
// A name is claimed only for a request a fresh column would take: first,
// when non-nil, is the report batch about to be applied, and a new
// column that refuses it (group reports before any sample) is never
// installed. Like the empty stream, a refused first request must not
// leave a phantom "collecting" column behind. For a column that already
// exists the phase gate is the reports operation's, under opMu.
func (s *Server) register(name string, kind protocol.Kind, attr int, first batchSet) (*pendingColumn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errServerClosed
	}
	if _, done := s.finished.get(name); done {
		return nil, apiErrorf(http.StatusConflict, codeFinalized, name, "column %q is already finalized", name)
	}
	if col, exists := s.pending[name]; exists {
		if col.kind != kind || col.attr != attr {
			return nil, apiErrorf(http.StatusConflict, codeConflict, name, "column %q is %s state of attribute %d, not %s state of attribute %d",
				name, col.kind.String(), col.attr, kind.String(), attr)
		}
		return col, nil
	}
	col := &pendingColumn{name: name, kind: kind, attr: attr, state: kinds[kind].newColumn(s, attr)}
	if first != nil {
		if err := col.state.admit(first); err != nil {
			return nil, s.conflict(name, err)
		}
	}
	s.pending[name] = col
	return col, nil
}

// collecting resolves the collecting column a lifecycle request
// (advance, finalize) names: 409 for a finalized column, 404 for an
// unknown one.
func (s *Server) collecting(name string) (*pendingColumn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, done := s.finished.get(name); done {
		return nil, apiErrorf(http.StatusConflict, codeFinalized, name, "column %q is already finalized", name)
	}
	col, ok := s.pending[name]
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, codeNotFound, name, "column %q has no reports", name)
	}
	return col, nil
}

// reports is the one ingest operation, for every column kind: gate, WAL
// append, fold. It consumes batch (a pooled batch set of the column's
// kind) and returns the column's report count as of this request.
func (s *Server) reports(col *pendingColumn, batch batchSet) (total int64, err error) {
	// The phase gate, the WAL append, and the fold run under the column's
	// operation mutex so the log is written in acceptance order — see
	// pendingColumn.opMu.
	col.opMu.Lock()
	defer col.opMu.Unlock()
	if err := col.state.admit(batch); err != nil {
		return 0, s.conflict(col.name, err)
	}

	// Durability before acknowledgement: the decoded reports go to the
	// write-ahead log, fsynced, before anything is acked. A failed append
	// rejects the request (at worst the column sits empty until more
	// reports arrive — a disk fault is an operator page either way).
	if s.st != nil {
		if err := col.state.appendReports(s.st, col.name, col.attr, batch); err != nil {
			return 0, s.storeAppendError(col.name, err)
		}
	}

	// Fold inline, outside the lifecycle lock. The pooled enqueue is
	// atomic against a concurrent finalize — the request's reports land
	// entirely before the drain or not at all — and recycles each batch
	// into the protocol pool once folded (the WAL append above already
	// read them).
	if err := col.state.enqueuePooled(batch); err != nil {
		return 0, s.conflict(col.name, err)
	}
	return col.state.N(), nil
}

// advanceRequest is the JSON body of POST /v1/columns/{name}/advance and
// the advance operation's argument. A nil FI asks the server to compute
// the set from the column's own phase-1 sample; an explicit FI (the
// federated flow, typically a union of per-collector proposals; always
// on replay, which re-freezes the recorded set rather than recomputing
// it) installs that set instead — sorted, deduplicated, inside the
// domain, the form the WAL record and the snapshot codec require.
type advanceRequest struct {
	Domain uint64   `json:"domain"`
	Theta  float64  `json:"theta"`
	FI     []uint64 `json:"fi"`
}

// advance drives a plus column over its phase boundary: compute (or
// adopt) the frequent-item set, persist the advance, flip the column to
// phase 2. It returns the frozen set.
func (s *Server) advance(col *pendingColumn, req advanceRequest) (frozen []uint64, err error) {
	col.opMu.Lock()
	defer col.opMu.Unlock()
	return s.advanceLocked(col, req)
}

// advanceLocked is advance's body; the caller holds col.opMu. The merge
// operation calls it to adopt a snapshot's phase boundary.
func (s *Server) advanceLocked(col *pendingColumn, req advanceRequest) (frozen []uint64, err error) {
	plus, ok := col.state.(plusColumn)
	if !ok {
		return nil, apiErrorf(http.StatusConflict, codeConflict, col.name,
			"column %q is a %s column; advance applies to plus columns", col.name, col.kind.String())
	}
	// Check the phase before anything reaches the WAL: a second advance
	// record would be rejected at replay, so it must never be written.
	if plus.Advanced() {
		return nil, s.conflict(col.name, ingest.ErrPlusAdvanced)
	}
	fi := req.FI
	if fi == nil {
		if fi, err = plus.ProposeFI(req.Domain, req.Theta); err != nil {
			return nil, s.conflict(col.name, err)
		}
	}
	if s.st != nil {
		if err := s.st.AppendPlusAdvance(col.name, col.attr, req.Domain, req.Theta, fi); err != nil {
			return nil, s.storeAppendError(col.name, err)
		}
	}
	if frozen, err = plus.Advance(req.Domain, req.Theta, explicitFI(fi)); err != nil {
		return nil, s.conflict(col.name, err)
	}
	return frozen, nil
}

// merge folds an unfinalized snapshot — another collector's export, or
// on replay a logged merge or a checkpoint — into the column: an
// integer-cell merge, so the eventual sketch is
// byte-identical to single-node ingestion of the union stream. encoded
// is snap's canonical encoding, the WAL record's payload (unread when
// nothing is logged). It returns the column's report count afterwards.
//
// A plus snapshot's phase must not be behind the column's, and when it
// is ahead — it advanced, the column has not — the column adopts the
// snapshot's frozen (domain, θ, FI) first, durably, by running the
// advance operation's body, so replay crosses the boundary at the same
// point. That is also how a checkpoint restores the phase on replay: it
// is the only snapshot that can be a phase ahead there, because a live
// merge logs its advance record before its merge record.
func (s *Server) merge(col *pendingColumn, snap protocol.ColumnSnapshot, encoded []byte) (total int64, err error) {
	col.opMu.Lock()
	defer col.opMu.Unlock()
	// Restore the mergeable state and place it against the column's phase
	// before the WAL append: a record the in-memory column rejects must
	// never be logged, or replay would reject it too and wedge recovery.
	m, adopt, err := col.state.prepareMerge(snap)
	if err != nil {
		return 0, apiErrorf(http.StatusConflict, codeConflict, col.name, "merging into column %q: %v", col.name, err)
	}
	if adopt != nil {
		if _, err := s.advanceLocked(col, *adopt); err != nil {
			return 0, err
		}
	}
	if s.st != nil {
		if err := s.st.AppendMerge(col.name, col.kind, col.attr, encoded); err != nil {
			return 0, s.storeAppendError(col.name, err)
		}
	}
	if err := col.state.merge(m); err != nil {
		return 0, apiErrorf(http.StatusConflict, codeConflict, col.name, "merging into column %q: %v", col.name, err)
	}
	return col.state.N(), nil
}

// conflict is the refusal of a request the column's state rejects — the
// wrong side of a plus phase boundary, a column finalized underneath it:
// the column exists, so a conflict, not a malformed request.
func (s *Server) conflict(name string, err error) error {
	return apiErrorf(http.StatusConflict, codeConflict, name, "column %q: %v", name, err)
}

// storeAppendError maps a WAL append failure to its refusal: a sealed
// log means the column is finalized (409, do not retry), and a store
// closed by Shutdown the retryable 503.
func (s *Server) storeAppendError(name string, err error) error {
	switch {
	case errors.Is(err, store.ErrClosed) && s.closed.Load():
		return errServerClosed
	case errors.Is(err, store.ErrColumnFinalized):
		return apiErrorf(http.StatusConflict, codeFinalized, name, "column %q is already finalized", name)
	}
	return apiErrorf(http.StatusInternalServerError, codeInternal, name, "persisting request for column %q: %v", name, err)
}

// recoverer folds the column store's recovered state back into the
// server. It has no bodies of its own: finalized snapshots restore
// straight into the finished registry, and collecting state replays
// through register and the three operations exactly like live traffic —
// Recover runs before s.st is set, so they skip the WAL as an in-memory
// server's do. The ten store.Replayer methods are the per-shape entry
// points. The store replays distinct columns concurrently, so every path
// here takes the same locks live traffic does: s.mu for the maps and the
// registry, the column's opMu for its state.
type recoverer struct{ s *Server }

// column returns the collecting column for a recovering name, creating
// it with the kind and attribute slot the manifest recorded — checked
// here as the handlers check a request's, because the manifest is this
// path's outside input.
func (r recoverer) column(info store.ColumnInfo) (*pendingColumn, error) {
	ops, ok := kinds[info.Kind]
	if !ok {
		return nil, fmt.Errorf("recovered column %q has unknown kind %d", info.Name, info.Kind)
	}
	if err := ops.checkAttr(r.s, info.Attr); err != nil {
		return nil, fmt.Errorf("recovered column %q: %w", info.Name, err)
	}
	return r.s.register(info.Name, info.Kind, info.Attr, nil)
}

func (r recoverer) finalized(info store.ColumnInfo, snap protocol.ColumnSnapshot) error {
	fin, err := kinds[info.Kind].restore(snap)
	if err != nil {
		return err
	}
	fin.attr = info.Attr
	// Recovery runs before the first request, so it may grow the
	// registry's map in place instead of copy-and-swapping once per
	// recovered column — under s.mu, because other columns are replaying
	// (and registering) concurrently.
	r.s.mu.Lock()
	r.s.finished.seed(info.Name, fin)
	r.s.mu.Unlock()
	return nil
}

func (r recoverer) snapshot(info store.ColumnInfo, snap protocol.ColumnSnapshot) error {
	col, err := r.column(info)
	if err != nil {
		return err
	}
	_, err = r.s.merge(col, snap, nil)
	return err
}

func (r recoverer) batch(info store.ColumnInfo, b batchSet) error {
	col, err := r.column(info)
	if err != nil {
		return err
	}
	_, err = r.s.reports(col, b)
	return err
}

func (r recoverer) RecoverFinalized(info store.ColumnInfo, snap *protocol.Snapshot) error {
	return r.finalized(info, snap)
}
func (r recoverer) RecoverPlusFinalized(info store.ColumnInfo, snap *protocol.PlusSnapshot) error {
	return r.finalized(info, snap)
}
func (r recoverer) RecoverCheckpoint(info store.ColumnInfo, snap *protocol.Snapshot) error {
	return r.snapshot(info, snap)
}
func (r recoverer) RecoverPlusCheckpoint(info store.ColumnInfo, snap *protocol.PlusSnapshot) error {
	return r.snapshot(info, snap)
}
func (r recoverer) RecoverMerge(info store.ColumnInfo, snap *protocol.Snapshot) error {
	return r.snapshot(info, snap)
}
func (r recoverer) RecoverPlusMerge(info store.ColumnInfo, snap *protocol.PlusSnapshot) error {
	return r.snapshot(info, snap)
}
func (r recoverer) RecoverReports(info store.ColumnInfo, reports []core.Report) error {
	return r.batch(info, oneBatch(reports))
}
func (r recoverer) RecoverMatrixReports(info store.ColumnInfo, reports []core.MatrixReport) error {
	return r.batch(info, oneBatch(reports))
}
func (r recoverer) RecoverPlusReports(info store.ColumnInfo, group protocol.PlusGroup, reports []core.Report) error {
	return r.batch(info, plusBatches{oneBatch(reports), group})
}
func (r recoverer) RecoverPlusAdvance(info store.ColumnInfo, domain uint64, theta float64, fi []uint64) error {
	col, err := r.column(info)
	if err != nil {
		return err
	}
	_, err = r.s.advance(col, advanceRequest{Domain: domain, Theta: theta, FI: explicitFI(fi)})
	return err
}
