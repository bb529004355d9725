package service

import (
	"sync"
	"sync/atomic"
)

// finishedRegistry holds the finalized columns behind an atomic
// copy-on-write pointer. Finalized sketches are immutable — the whole
// point of the paper's summaries is that they can be queried forever
// without revisiting user data — so the only mutations are map-shaped:
// finalize, finalized-snapshot import, and startup recovery each add a
// name. Those writers copy the current map, add their entry, and swap
// the pointer while holding the server's lifecycle mutex (which keeps
// the registry's contents consistent with the pending map and the
// closed flag). Readers — every query, export, and stats request —
// load the pointer and index a map that can never change underneath
// them: no lock, no contention with ingestion or with each other.
type finishedRegistry struct {
	p atomic.Pointer[map[string]*finishedColumn]
}

// init installs the empty map. Call once before the registry is shared.
func (r *finishedRegistry) init() {
	m := make(map[string]*finishedColumn)
	r.p.Store(&m)
}

// view returns the current generation of the map. Callers must treat it
// as immutable; it stays valid (and frozen) for as long as they hold it.
func (r *finishedRegistry) view() map[string]*finishedColumn {
	return *r.p.Load()
}

// get returns the finalized column under name, lock-free.
func (r *finishedRegistry) get(name string) (*finishedColumn, bool) {
	col, ok := (*r.p.Load())[name]
	return col, ok
}

// seed adds a finalized column by mutating the current map in place.
// It is only for startup recovery, before the server is shared with any
// lock-free reader: skipping the copy-and-swap keeps recovering N
// finalized columns O(N) instead of O(N²) map-entry copies. Recovery
// replays columns concurrently, so callers hold the server's lifecycle
// mutex, which also orders seed against register's lookups.
func (r *finishedRegistry) seed(name string, col *finishedColumn) {
	(*r.p.Load())[name] = col
}

// install publishes a finalized column by copy-and-swap. Callers must
// hold the server's lifecycle mutex: the mutex serializes writers, the
// atomic swap publishes to the lock-free readers.
func (r *finishedRegistry) install(name string, col *finishedColumn) {
	old := *r.p.Load()
	next := make(map[string]*finishedColumn, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = col
	r.p.Store(&next)
}

// counterMap is a grow-only map of per-column event counters (snapshot
// exports, merges) that can be bumped without the lifecycle mutex: the
// sync.Map handles name registration, the per-name atomic handles the
// count.
type counterMap struct {
	m sync.Map // column name -> *atomic.Int64
}

// bump increments name's counter, creating it on first use.
func (c *counterMap) bump(name string) {
	v, ok := c.m.Load(name)
	if !ok {
		v, _ = c.m.LoadOrStore(name, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// each calls f for every (name, count) pair.
func (c *counterMap) each(f func(name string, n int64)) {
	c.m.Range(func(k, v any) bool {
		f(k.(string), v.(*atomic.Int64).Load())
		return true
	})
}
