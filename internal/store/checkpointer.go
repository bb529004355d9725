package store

import (
	"time"
)

// Checkpointer is the background checkpoint policy loop: a single
// goroutine that periodically scans the per-column
// bytes-since-checkpoint trackers and invokes the service-provided run
// callback for each column that is due. The policy lives in the store —
// it owns the WAL byte accounting — but the capture itself must go
// through the service, which owns the only path that can quiesce a
// column's in-memory aggregation (the column's operation lock), so the
// two halves meet at the callback.
type Checkpointer struct {
	st   *Store
	run  func(name string) error
	tick time.Duration
	stop chan struct{}
	done chan struct{}
}

// StartCheckpointer launches the background checkpoint loop, returning
// nil when CheckpointBytes is not set (checkpoints then happen only at
// shutdown). run is called sequentially, one due column at a time, and
// must capture the column's state and call SaveCheckpoint; errors are
// counted in Stats and retried on the next tick, because the bytes
// tracker is only reset by a successful save.
func (st *Store) StartCheckpointer(run func(name string) error) *Checkpointer {
	if st.opts.CheckpointBytes <= 0 {
		return nil
	}
	c := &Checkpointer{
		st:   st,
		run:  run,
		tick: st.opts.CheckpointTick,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.loop()
	return c
}

// Stop halts the loop and waits for an in-flight checkpoint to finish.
// Safe to call on a nil Checkpointer (triggers disabled) and idempotent
// is not required — the service stops it exactly once, in Shutdown,
// before the shutdown checkpoints.
func (c *Checkpointer) Stop() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

func (c *Checkpointer) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		for _, name := range c.st.checkpointCandidates() {
			select {
			case <-c.stop:
				return
			default:
			}
			start := time.Now()
			err := c.run(name)
			c.st.noteCheckpointRun(time.Since(start), err)
		}
	}
}

// checkpointCandidates returns the collecting columns whose
// un-checkpointed WAL bytes have reached CheckpointBytes. Finalized
// columns never qualify — their tracker is dropped when finalization
// lands, and the meta check covers the race where it has not yet.
func (st *Store) checkpointCandidates() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	var due []string
	for name, t := range st.ckpt {
		if t.bytes < st.opts.CheckpointBytes {
			continue
		}
		if meta, ok := st.man.Columns[name]; !ok || meta.Finalized {
			continue
		}
		due = append(due, name)
	}
	return due
}

// noteCheckpointRun records one background checkpoint attempt's timing
// or failure. A run that aborted benignly (column finalized or store
// closed underneath it) reports nil, so only real failures count.
func (st *Store) noteCheckpointRun(took time.Duration, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.stats.CheckpointErrors++
		return
	}
	st.stats.LastCheckpointNanos = int64(took)
}
