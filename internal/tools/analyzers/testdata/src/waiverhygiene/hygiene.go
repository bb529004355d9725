// Package waiverhygiene exercises dead-waiver detection: a waiver
// that suppresses nothing — for an analyzer that actually ran — is
// itself a finding, so burned-down waivers get deleted instead of
// silently swallowing the next diagnostic to land on their line.
package waiverhygiene

import "sync"

type counters struct {
	mu sync.Mutex
	n  int64
}

// liveWaiver suppresses a real atomiccounter finding: not flagged.
func (c *counters) liveWaiver() {
	//ldpjoinvet:ignore atomiccounter single-goroutine fixture helper, never shared
	c.n++
}

// deadWaiver excuses nothing — the increment below it is correctly
// locked — so the waiver itself is the finding.
func (c *counters) deadWaiver() {
	c.mu.Lock()
	defer c.mu.Unlock()
	//ldpjoinvet:ignore atomiccounter stale excuse left behind by a refactor // want `waiver for "atomiccounter" suppresses nothing`
	c.n++
}

// deadLockioWaiver is dead for a different analyzer in the same run.
func (c *counters) deadLockioWaiver() int {
	//ldpjoinvet:ignore lockio nothing below does I/O under a lock anymore // want `waiver for "lockio" suppresses nothing`
	return 0
}

// notInThisRun: poolown is registered but not part of this fixture
// run, so the waiver's liveness is unknowable here and not judged.
func (c *counters) notInThisRun() int {
	//ldpjoinvet:ignore poolown the batch is deliberately reused here
	return 1
}

// waivedDeadWaiver pins the recursion cap: a dead waiver can itself be
// waived with a waiverhygiene waiver, whose own liveness is never
// checked.
func (c *counters) waivedDeadWaiver() {
	c.mu.Lock()
	defer c.mu.Unlock()
	//ldpjoinvet:ignore waiverhygiene the line below is kept dead on purpose as a fixture
	//ldpjoinvet:ignore atomiccounter deliberately dead, excused by the hygiene waiver above
	c.n++
}
