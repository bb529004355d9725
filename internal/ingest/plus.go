package ingest

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

var (
	// ErrPlusPhase is returned when a report batch's group does not
	// match the column's current phase: sample reports after the
	// advance, or group reports before it.
	ErrPlusPhase = errors.New("ingest: report group does not match the plus column's phase")
	// ErrPlusAdvanced is returned for a second advance.
	ErrPlusAdvanced = errors.New("ingest: plus column already advanced")
	// ErrPlusNotAdvanced is returned when an operation needs the phase
	// boundary to have passed — finalizing a plus column that never
	// advanced has no group sketches to estimate from.
	ErrPlusNotAdvanced = errors.New("ingest: plus column has not advanced to phase 2")
)

// PlusColumn is one two-phase LDPJoinSketch+ column under construction:
// three ordinary sharded Columns on the shared worker pool — the
// phase-1 sample window under the sample family, and the two phase-2
// FAP group sketches under the shared group family — plus the phase
// boundary itself. The column starts in phase 1 (only sample reports
// are accepted); Advance freezes the frequent-item set and flips it to
// phase 2 (only low/high group reports are accepted). All mutations of
// the phase state serialize on one mutex so that the order in which
// reports and the advance are accepted is well defined — the property
// the WAL relies on to replay a crash into byte-identical state.
type PlusColumn struct {
	sample *Column
	low    *Column
	high   *Column

	mu       sync.Mutex
	advanced bool
	domain   uint64
	theta    float64
	fi       []uint64 // frozen at advance, sorted strictly ascending
}

// NewPlusColumn creates an empty plus column on the engine. famSample
// keys the phase-1 sample sketch, famGroup both phase-2 group sketches
// (FAP changes how non-targets are encoded, not where targets land).
// Both families must share the engine's dimensions.
func (e *Engine) NewPlusColumn(famSample, famGroup *hashing.Family) *PlusColumn {
	return &PlusColumn{
		sample: e.NewColumnWithFamily(famSample),
		low:    e.NewColumnWithFamily(famGroup),
		high:   e.NewColumnWithFamily(famGroup),
	}
}

// column maps a wire group, already validated by checkGroupLocked, to
// its backing column.
func (c *PlusColumn) column(group protocol.PlusGroup) *Column {
	switch group {
	case protocol.PlusSample:
		return c.sample
	case protocol.PlusLow:
		return c.low
	}
	return c.high
}

// CheckGroup reports whether a batch for the group would currently be
// accepted: sample reports only before the advance, group reports only
// after. Callers that persist before enqueueing (the service) check
// under their own serialization so nothing unreplayable reaches the
// WAL.
func (c *PlusColumn) CheckGroup(group protocol.PlusGroup) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkGroupLocked(group)
}

func (c *PlusColumn) checkGroupLocked(group protocol.PlusGroup) error {
	if group > protocol.PlusHigh {
		return fmt.Errorf("ingest: invalid plus group %d", group)
	}
	if (group == protocol.PlusSample) == c.advanced {
		return fmt.Errorf("%w: %s reports while %s", ErrPlusPhase, group, c.phaseLocked())
	}
	return nil
}

func (c *PlusColumn) phaseLocked() string {
	if c.advanced {
		return "in phase 2"
	}
	return "in phase 1"
}

// EnqueueAllPooled routes a set of batches for one phase group to the
// backing column, after checking the group against the current phase.
// The phase check and the enqueue happen under the column mutex, so a
// concurrent Advance cannot slip between them. The batches come from
// the protocol batch pool, under the same total-ownership contract as
// Column.EnqueueAllPooled.
func (c *PlusColumn) EnqueueAllPooled(group protocol.PlusGroup, batches [][]core.Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkGroupLocked(group); err != nil {
		return err
	}
	return c.column(group).EnqueueAllPooled(batches)
}

// Advanced reports whether the phase boundary has passed.
func (c *PlusColumn) Advanced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advanced
}

// AdvanceInfo returns the frozen advance parameters (a copy) and
// whether the column has advanced.
func (c *PlusColumn) AdvanceInfo() (domain uint64, theta float64, fi []uint64, advanced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.domain, c.theta, slices.Clone(c.fi), c.advanced
}

// ProposeFI extracts a frequent-item proposal from the current phase-1
// sample state without freezing anything: a point-in-time copy of the
// sample aggregator is finalized and thresholded at θ·|S| (Algorithm
// 3, phase 1). Callers broadcast proposals (GET /fi) or pass a union
// of proposals back into Advance.
func (c *PlusColumn) ProposeFI(domain uint64, theta float64) ([]uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advanced {
		return nil, ErrPlusAdvanced
	}
	return c.proposeLocked(domain, theta)
}

func (c *PlusColumn) proposeLocked(domain uint64, theta float64) ([]uint64, error) {
	// The scan below is O(domain·K) hash evaluations under the column
	// mutex and can name up to domain items, while the advance record and
	// the snapshot codec carry at most MaxPlusFI: past that bound a
	// proposal could neither finish in bounded time nor be replayed, and
	// the domain is a client's say-so. Larger domains advance with an
	// explicit set proposed elsewhere.
	if domain > protocol.MaxPlusFI {
		return nil, fmt.Errorf("ingest: a frequent-item scan covers at most %d values and the domain is %d; advance with an explicit set", protocol.MaxPlusFI, domain)
	}
	// Wait for every accepted fold to land first: the proposal must be
	// a deterministic function of the accepted phase-1 stream, not of
	// worker timing — kill-and-reopen recovery replays that stream and
	// must propose the same set. New enqueues block on c.mu meanwhile,
	// so the wait has a fixed target.
	c.sample.Settle()
	agg, err := c.sample.State()
	if err != nil {
		return nil, err
	}
	sk := agg.Finalize()
	// FrequentItems scans [0, domain) in order, so the proposal is
	// already sorted strictly ascending — the canonical FI form.
	return sk.FrequentItems(domain, theta*sk.N(), false), nil
}

// Advance freezes the frequent-item set and flips the column to phase
// 2. With fi == nil the set is computed from the column's own phase-1
// sample (the single-collector flow); an explicit fi — sorted strictly
// ascending, every item inside the domain — installs a
// coordinator-supplied set instead (the federated flow, where FI is
// the union of per-collector proposals). The sample aggregator is not
// consumed: phase-1 reports keep their exact integer cells for
// finalization and federation. Returns the frozen set.
func (c *PlusColumn) Advance(domain uint64, theta float64, fi []uint64) ([]uint64, error) {
	if domain == 0 {
		return nil, fmt.Errorf("ingest: advance needs a positive domain")
	}
	if !(theta > 0 && theta < 1) {
		return nil, fmt.Errorf("ingest: advance theta %v outside (0,1)", theta)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advanced {
		return nil, ErrPlusAdvanced
	}
	if fi == nil {
		var err error
		if fi, err = c.proposeLocked(domain, theta); err != nil {
			return nil, err
		}
	} else {
		for i, d := range fi {
			if d >= domain {
				return nil, fmt.Errorf("ingest: frequent item %d outside domain %d", d, domain)
			}
			if i > 0 && d <= fi[i-1] {
				return nil, fmt.Errorf("ingest: frequent items not strictly ascending at index %d", i)
			}
		}
		fi = slices.Clone(fi)
	}
	c.advanced = true
	c.domain = domain
	c.theta = theta
	c.fi = fi
	return slices.Clone(fi), nil
}

// N returns the reports accepted so far across all phases.
func (c *PlusColumn) N() int64 {
	return c.sample.N() + c.low.N() + c.high.N()
}

// Finalize drains all three backing columns and restores the finalized
// column state. The column must have advanced — before the phase
// boundary there are no group sketches to estimate from — and cannot
// be used afterwards.
func (c *PlusColumn) Finalize() (*core.PlusState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advanced {
		return nil, ErrPlusNotAdvanced
	}
	sample, err := c.sample.Finalize()
	if err != nil {
		return nil, err
	}
	low, err := c.low.Finalize()
	if err != nil {
		return nil, err
	}
	high, err := c.high.Finalize()
	if err != nil {
		return nil, err
	}
	return &core.PlusState{
		Sample: sample,
		Low:    low,
		High:   high,
		Domain: c.domain,
		Theta:  c.theta,
		FI:     c.fi,
	}, nil
}

// export assembles the composite snapshot, taking each backing column's
// state with take — Snapshot to drain it, Capture to copy it. Callers
// hold c.mu.
func (c *PlusColumn) export(take func(*Column) (*protocol.Snapshot, error), fi []uint64) (*protocol.PlusSnapshot, error) {
	ps := &protocol.PlusSnapshot{Advanced: c.advanced}
	var err error
	if ps.Sample, err = take(c.sample); err != nil {
		return nil, err
	}
	if c.advanced {
		ps.Domain, ps.Theta, ps.FI = c.domain, c.theta, fi
		if ps.Low, err = take(c.low); err != nil {
			return nil, err
		}
		if ps.High, err = take(c.high); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// Snapshot drains the column into a mergeable composite snapshot — the
// checkpoint form of a collecting plus column. Like Column.Snapshot it
// consumes the column and shares the drained rows; encode before
// anything else touches it.
func (c *PlusColumn) Snapshot() (*protocol.PlusSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.export((*Column).Snapshot, c.fi)
}

// State copies the column's current state into a fresh composite
// snapshot without consuming it: the point-in-time export live
// federation pulls (GET /snapshot). The copy and the phase metadata
// are read under the column mutex, so a concurrent Advance can never
// produce a snapshot whose groups disagree with its FI.
func (c *PlusColumn) State() (*protocol.PlusSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// As in proposeLocked: settle the accepted folds so the export is a
	// deterministic function of the accepted stream — the property the
	// federation conformance (byte-identical to single-node ingestion)
	// rests on.
	c.sample.Settle()
	c.low.Settle()
	c.high.Settle()
	return c.export((*Column).Capture, slices.Clone(c.fi))
}

// CheckMerge places an unfinalized composite snapshot's phase against
// the column's — the one copy of the merge-admission policy. A snapshot
// that advanced while the column has not can merge once the column
// follows its frozen (domain, θ, FI): adopt reports that. One behind the
// column's phase, or one that froze a different FI set, can never merge
// exactly.
func (c *PlusColumn) CheckMerge(snap *protocol.PlusSnapshot) (adopt bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkMerge(snap)
}

func (c *PlusColumn) checkMerge(snap *protocol.PlusSnapshot) (adopt bool, err error) {
	switch {
	case snap.Finalized:
		return false, fmt.Errorf("ingest: cannot merge a finalized plus snapshot")
	case snap.Advanced && !c.advanced:
		return true, nil
	case c.advanced && !snap.Advanced:
		return false, fmt.Errorf("%w: merging a phase-1 snapshot into a phase-2 column", ErrPlusPhase)
	case c.advanced && (snap.Domain != c.domain || snap.Theta != c.theta || !slices.Equal(snap.FI, c.fi)):
		return false, fmt.Errorf("ingest: plus snapshot froze a different frequent-item set than the column")
	}
	return false, nil
}

// MergePlus folds another collector's unfinalized composite snapshot
// into the column, phase by phase. The phases must agree (CheckMerge):
// the service adopts a snapshot's advance first when the local column
// can still follow. Merging is exact for the same reason single-phase
// merging is — unfinalized cells are integer sums.
func (c *PlusColumn) MergePlus(snap *protocol.PlusSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if adopt, err := c.checkMerge(snap); err != nil {
		return err
	} else if adopt {
		return fmt.Errorf("%w: merging a phase-2 snapshot into a phase-1 column", ErrPlusPhase)
	}
	// Low and High are nil until the snapshot advanced.
	for _, phase := range []struct {
		col  *Column
		snap *protocol.Snapshot
	}{{c.sample, snap.Sample}, {c.low, snap.Low}, {c.high, snap.High}} {
		if phase.snap == nil {
			continue
		}
		agg, err := phase.snap.Aggregator()
		if err != nil {
			return err
		}
		if err := phase.col.MergeAggregator(agg); err != nil {
			return err
		}
	}
	return nil
}
