package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/service"
	"ldpjoin/internal/store"
)

// checkpointTick is how often the background checkpointer of a shape
// that has one looks for due columns. Trials are about a second, so the
// daemon's one-second default would never fire.
const checkpointTick = 25 * time.Millisecond

// trialStats is what one trial measured.
type trialStats struct {
	traced bool
	wall   time.Duration // the whole trial, untimed checks included

	ingestWall time.Duration
	walBytes   int64
	appends    int64
	bgCkpts    int64
	ckptErrors int64
	recoverS   float64
	shutdownMS float64
	reopenMS   float64
	finalizeMS []float64

	queryWall                time.Duration
	lat                      [numOps][]float64 // µs, per series
	served, computed         [numOps]int       // checked replies, and those the cache did not answer
	hits, lookups, evictions int64             // catalog query cache, over the timed query phase
}

// run is one invocation's state across trials.
type run struct {
	w      *world
	tmp    string // every data dir lives under here
	tr     *tracer
	check  *checker
	trials []*trialStats

	microErr          error // first error inside a microbenchmark body
	attempted, failed int
	expected          map[string][]byte // ingest column → finalized export, by the serial reference fold
}

// fail counts one failed operation and says why on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// ok counts one attempted request and whether it was answered 200.
func (r *run) ok(what string, rep reply) bool {
	r.attempted++
	if rep.code != http.StatusOK {
		r.fail("%s: %d %s", what, rep.code, bytes.TrimSpace(rep.body))
		return false
	}
	return true
}

// serverStats is the part of GET /v1/stats the harness reads.
type serverStats struct {
	QueryCache struct{ Hits, Misses, Evictions int64 }
	Durability struct{ WalAppends, WalBytes, BackgroundCheckpoints, CheckpointErrors int64 }
}

func readStats(h http.Handler) (serverStats, error) {
	var s serverStats
	rep := call(h, "GET", "/v1/stats", nil)
	if rep.code != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: %d %s", rep.code, rep.body)
	}
	return s, json.Unmarshal(rep.body, &s)
}

func (r *run) storeOptions() store.Options {
	return store.Options{CheckpointBytes: r.w.wl.ingest.checkpointBytes, CheckpointTick: checkpointTick}
}

func (r *run) openDurable(dir string) (*service.Server, error) {
	return service.NewWithOptions(r.w.cfg.params, r.w.seed, service.Options{DataDir: dir, Store: r.storeOptions()})
}

// trial runs one trial: the write life of a fresh durable server, then
// the read traffic against the catalog.
func (r *run) trial(traced bool) error {
	t := &trialStats{traced: traced}
	start := time.Now()
	if err := r.ingestTrial(t); err != nil {
		return err
	}
	if err := r.queryTrial(t); err != nil {
		return err
	}
	t.wall = time.Since(start)
	r.trials = append(r.trials, t)
	return nil
}

// record files a timed phase's replies: latency by series, and a root
// span per handler call when the trial is traced.
func (r *run) record(t *trialStats, reqs []request, replies []reply) {
	for i, rep := range replies {
		c := reqs[i].class
		t.lat[c] = append(t.lat[c], float64(rep.lat)/1e3)
		if t.traced {
			r.tr.root(spanNames[c], len(r.trials)<<24|i, rep.start, rep.lat) // request id: trial, then position
		}
	}
}

var spanNames = [numOps]string{"service.reports", "service.join", "service.frequency", "service.chain", "service.plusjoin", "service.admin"}

func (r *run) ingestTrial(t *trialStats) error {
	w := r.w
	dir, err := os.MkdirTemp(r.tmp, "trial-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dirA, dirB := filepath.Join(dir, "a"), filepath.Join(dir, "b")

	a, err := r.openDurable(dirA)
	if err != nil {
		return err
	}
	defer a.Close()
	ha := a.Handler()
	for _, rq := range w.prep {
		if !r.ok("prep "+rq.target, call(ha, rq.method, rq.target, rq.body)) {
			return fmt.Errorf("preparing the trial's plus columns failed")
		}
	}

	// Timed: the fixed write sequence, WAL-before-ack, C clients.
	replies, wall := drive(ha, w.cfg.clients, w.ingest)
	t.ingestWall = wall
	r.record(t, w.ingest, replies)
	for i, rep := range replies {
		r.ok(w.ingest[i].target, rep)
	}
	st, err := readStats(ha)
	if err != nil {
		return err
	}
	t.walBytes, t.appends = st.Durability.WalBytes, st.Durability.WalAppends

	// Crash: copy the data dir as it stands (minus the lock) and open a
	// second server on the copy. With a background checkpointer, first
	// let it finish the columns that are due, so the copy is not taken
	// across a checkpoint's write-then-delete.
	if w.wl.ingest.checkpointBytes > 0 {
		if st, err = r.quiesce(ha, st); err != nil {
			return err
		}
	}
	t.bgCkpts, t.ckptErrors = st.Durability.BackgroundCheckpoints, st.Durability.CheckpointErrors
	if err := copyDir(dirA, dirB); err != nil {
		return err
	}
	start := time.Now()
	b, err := r.openDurable(dirB)
	t.recoverS = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("crash recovery: %w", err)
	}
	// Clean restart of the recovered server: drain, checkpoint every
	// column, reopen from the checkpoints.
	start = time.Now()
	err = b.Shutdown()
	t.shutdownMS = float64(time.Since(start)) / 1e6
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	start = time.Now()
	b, err = r.openDurable(dirB)
	t.reopenMS = float64(time.Since(start)) / 1e6
	if err != nil {
		return fmt.Errorf("reopening the checkpointed dir: %w", err)
	}
	defer b.Close()
	hb := b.Handler()

	// Finalize every column on both servers (timed on the original, whose
	// log is still whole) and hold both exports against the serial fold.
	if r.expected == nil {
		if r.expected, err = w.expectedExports(); err != nil {
			return err
		}
	}
	for _, col := range w.ingestCols {
		target := "/v1/columns/" + col.name
		for hi, h := range []http.Handler{ha, hb} {
			original := hi == 0
			if col.kind == protocol.KindPlus && !col.advance {
				r.ok("advance "+col.name, call(h, "POST", target+"/advance", w.advanceBody()))
			}
			rep := call(h, "POST", target+"/finalize", nil)
			r.ok("finalize "+col.name, rep)
			if original {
				t.finalizeMS = append(t.finalizeMS, float64(rep.lat)/1e6)
				if t.traced {
					r.tr.root("service.finalize", len(r.trials)<<24, rep.start, rep.lat)
				}
			}
			export := target + "/sketch"
			if col.kind == protocol.KindPlus {
				export = target + "/snapshot"
			}
			rep = call(h, "GET", export, nil)
			if r.ok(export, rep) && !bytes.Equal(rep.body, r.expected[col.name]) {
				which := "recovered"
				if original {
					which = "original"
				}
				r.fail("column %s: %s server's export differs from the serial reference fold", col.name, which)
			}
		}
	}
	return nil
}

// quiesce waits until the background checkpointer has gone three ticks
// without cutting a checkpoint and returns the stats it then read.
func (r *run) quiesce(h http.Handler, st serverStats) (serverStats, error) {
	for calm, deadline := 0, time.Now().Add(5*time.Second); calm < 3; {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("background checkpointer still busy after 5 s")
		}
		time.Sleep(checkpointTick)
		next, err := readStats(h)
		if err != nil {
			return st, err
		}
		if next.Durability.BackgroundCheckpoints == st.Durability.BackgroundCheckpoints {
			calm++
		} else {
			calm = 0
		}
		st = next
	}
	return st, nil
}

// copyDir copies a store's data dir, leaving out the advisory lock the
// owning process still holds.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == "LOCK" {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// expectedExports folds every ingest column's trial traffic serially —
// one core.Aggregator, one goroutine — and encodes the finalized state
// the way the server exports it.
func (w *world) expectedExports() (map[string][]byte, error) {
	p := w.cfg.params
	out := make(map[string][]byte, len(w.ingestCols))
	for _, col := range w.ingestCols {
		if col.kind == protocol.KindJoin {
			s := col.streams[0]
			data, err := fold(p, w.fams[0], s.reports, s.sends).Finalize().MarshalBinary()
			if err != nil {
				return nil, err
			}
			out[col.name] = data
			continue
		}
		groups := [3]*core.Aggregator{core.NewAggregator(p, w.famS), core.NewAggregator(p, w.famG), core.NewAggregator(p, w.famG)}
		for _, s := range col.streams {
			fam := w.famG
			if s.group == protocol.PlusSample {
				fam = w.famS
			}
			groups[s.group].Merge(fold(p, fam, s.reports, s.sends))
		}
		state := &core.PlusState{
			Sample: groups[protocol.PlusSample].Finalize(),
			Low:    groups[protocol.PlusLow].Finalize(),
			High:   groups[protocol.PlusHigh].Finalize(),
			Domain: w.cfg.domain, Theta: w.cfg.theta, FI: w.fi,
		}
		data, err := protocol.EncodePlusSnapshot(protocol.PlusSnapshotOfState(state))
		if err != nil {
			return nil, err
		}
		out[col.name] = data
	}
	return out, nil
}

func (r *run) queryTrial(t *trialStats) error {
	w := r.w
	before, err := readStats(w.handler)
	if err != nil {
		return err
	}
	replies, wall := drive(w.handler, w.cfg.clients, w.queryReqs)
	t.queryWall = wall
	r.record(t, w.queryReqs, replies)
	after, err := readStats(w.handler)
	if err != nil {
		return err
	}
	t.hits = after.QueryCache.Hits - before.QueryCache.Hits
	t.lookups = t.hits + after.QueryCache.Misses - before.QueryCache.Misses
	t.evictions = after.QueryCache.Evictions - before.QueryCache.Evictions

	// Untimed: every served estimate must equal the estimator called
	// directly on the harness's reference sketches.
	for i := range replies {
		op := &w.query[i]
		if !r.ok(op.target, replies[i]) || op.class == opAdmin {
			continue
		}
		got, err := r.check.reply(op, replies[i].body)
		if err != nil {
			r.fail("%s: %v", op.target, err)
			continue
		}
		t.served[op.class]++
		if !got.Cached {
			t.computed[op.class]++
		}
	}
	return nil
}
