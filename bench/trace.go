package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one request
// (or one replayed request) share Req; Parent is the ID of the span that
// caused this one, 0 for a root. Units is how much work the span covered
// (reports, calls) so a reader can normalise it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Units  int    `json:"units"`
}

// tracer keeps spans in memory until the run ends. The harness records
// them around its own calls into each layer; the program under test is
// not instrumented.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(name string, req, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span, stamping the work it covered.
func (t *tracer) end(id, units int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].Units = now, units
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, req, parent, units int, fn func()) {
	id := t.begin(name, req, parent)
	fn()
	t.end(id, units)
}

// root records an already-measured interval as a root span: the handler
// calls of a traced trial, which the trial loop times anyway.
func (t *tracer) root(name string, req int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: s, End: s + int64(d), Units: 1})
	t.mu.Unlock()
}

// selfTimes groups spans by name and reduces each to its self time in
// nanoseconds — its duration minus the part its child spans cover — and
// its units.
func (t *tracer) selfTimes() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		self := float64(s.End - s.Start - children[s.ID])
		st.self = append(st.self, self)
		st.dur = append(st.dur, float64(s.End-s.Start))
		st.units = append(st.units, float64(s.Units))
		st.selfSum += self
		st.unitSum += float64(s.Units)
	}
	return out
}

// spanStats is every span of one name: self times, durations (ns) and
// units in recording order, and the sums of the first and last.
type spanStats struct {
	self, dur, units []float64
	selfSum, unitSum float64
}

// perUnit is the median over spans of self time per unit, in ns.
func (st *spanStats) perUnit() float64 {
	per := make([]float64, len(st.self))
	for i := range per {
		per[i] = st.self[i] / st.units[i]
	}
	return median(per)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
