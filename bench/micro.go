package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The microbenchmarks time single exported functions of each layer at the
// benchmark's sketch dimensions, each sample a span. Calls that take
// well under a microsecond are timed `inner` at a time, so the clock
// reads are a small share of the sample.
const inner = 64

// sink keeps results alive so the compiler cannot drop the calls.
var sink float64

// micro records `reps` spans named name around fn, running prep
// (untimed) before each.
func (r *run) micro(name string, reps, units int, prep, fn func()) {
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		r.tr.do(name, i, 0, units, fn)
	}
}

func (r *run) microKernelCore() {
	w, p, reps := r.w, r.w.cfg.params, r.w.cfg.microReps
	rng := rand.New(rand.NewSource(w.seed))
	ref, other := w.joinA[0].ref, w.joinA[1].ref

	v := make([]float64, p.M)
	src := randomFloats(rng, p.M)
	reset := func() { copy(v, src) }
	r.micro("kernel.fwht", reps, 1, reset, func() { kernel.FWHT(v) })
	r.micro("kernel.fwht_scaled", reps, 1, reset, func() { kernel.FWHTScaled(v, 1.5) })
	a, b := ref.Row(0), other.Row(0)
	r.micro("kernel.dot", reps, inner, nil, func() {
		for i := 0; i < inner; i++ {
			sink += kernel.Dot(a, b)
		}
	})
	r.micro("kernel.dot_shifted", reps, inner, nil, func() {
		for i := 0; i < inner; i++ {
			sink += kernel.DotShifted(a, b, 0.5, 0.25)
		}
	})
	ests, fresh := make([]float64, inner*p.K), randomFloats(rng, inner*p.K)
	r.micro("kernel.median", reps, inner, func() { copy(ests, fresh) }, func() {
		for i := 0; i < inner; i++ {
			sink += kernel.MedianInPlace(ests[i*p.K : (i+1)*p.K])
		}
	})

	fam := w.fams[0]
	r.micro("hashing.bucket_sign", reps, inner, nil, func() {
		for d := uint64(0); d < inner; d++ {
			for j := 0; j < p.K; j++ {
				sink += float64(fam.Bucket(j, d) * fam.Sign(j, d))
			}
		}
	})

	fi := core.NewFISet(w.fi)
	r.micro("core.perturb", reps, inner, nil, func() {
		for d := uint64(0); d < inner; d++ {
			sink += float64(core.Perturb(d, p, fam, rng).Col)
		}
	})
	r.micro("core.fap_perturb", reps, inner, nil, func() {
		for d := uint64(0); d < inner; d++ {
			sink += float64(core.FAPPerturb(d, core.ModeLow, fi, p, w.famG, rng).Col)
		}
	})
	r.micro("core.frequent_items", reps/10, 1, nil, func() {
		sink += float64(len(ref.FrequentItems(w.cfg.domain, w.cfg.theta*ref.N(), false)))
	})
	batch := r.oneBatch(protocol.DefaultBatchSize)
	var agg *core.Aggregator
	r.micro("core.add", reps, len(batch), func() { agg = core.NewAggregator(p, fam) }, func() {
		for _, rep := range batch {
			agg.Add(rep)
		}
	})
	r.micro("core.finalize", reps, 1, func() { agg = fold(p, fam, batch, 1) }, func() { sink += agg.Finalize().N() })
}

func randomFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// microProtocol times the codecs: the plus and matrix stream decoders over
// set-up's own streams (the join decoder is timed by the replay), the WAL
// record codec and the snapshot codec. It returns the allocations of
// decoding one request of one batch: header, reader and a pooled batch.
func (r *run) microProtocol() (allocsPerBatch float64) {
	w, p, reps := r.w, r.w.cfg.params, r.w.cfg.microReps
	r.micro("protocol.decode_plus", reps/10, w.cfg.reports/4, nil, func() {
		_, _, batches, _, err := decodeBody(w.plusBody, p)
		r.try(err)
		recycle(batches)
	})
	r.micro("protocol.decode_matrix", reps/10, w.cfg.reports, nil, func() {
		batches, err := decodeMatrixBody(w.matrixBody, p)
		r.try(err)
		for _, b := range batches {
			//ldpjoinvet:ignore poolown every iteration's b is a different batch; the analyzer carries the range variable round the loop
			protocol.PutMatrixBatch(b)
		}
	})

	batch := r.oneBatch(protocol.DefaultBatchSize)
	body := encodeStream(p, batch, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		_, _, batches, _, err := decodeBody(body, p)
		r.try(err)
		recycle(batches)
	}
	runtime.ReadMemStats(&after)
	allocsPerBatch = float64(after.Mallocs-before.Mallocs) / float64(reps)

	var payload, frame []byte
	r.micro("protocol.wal_encode", reps, len(batch), nil, func() {
		payload = protocol.AppendReportsPayload(payload[:0], batch)
		frame = protocol.AppendRecord(frame[:0], protocol.RecordReports, payload)
	})
	r.micro("protocol.wal_decode", reps, len(batch), nil, func() {
		_, pl, err := protocol.ReadRecord(bytes.NewReader(frame))
		r.try(err)
		reports, err := protocol.DecodeReportsPayload(pl, p)
		r.try(err)
		protocol.PutReportBatch(reports)
	})
	snap := protocol.SnapshotOfSketch(w.joinA[0].ref)
	var data []byte
	r.micro("protocol.snapshot_encode", reps, 1, nil, func() {
		var err error
		data, err = protocol.EncodeSnapshot(snap)
		r.try(err)
	})
	r.micro("protocol.snapshot_decode", reps, 1, nil, func() {
		_, err := protocol.DecodeSnapshot(data)
		r.try(err)
	})
	return allocsPerBatch
}

// recycle hands decoded batches back to the protocol pool, as the fold
// that consumes them on the ingest path does.
func recycle(batches [][]core.Report) {
	for _, b := range batches {
		//ldpjoinvet:ignore poolown every iteration's b is a different batch; the analyzer carries the range variable round the loop
		protocol.PutReportBatch(b)
	}
}

// decodeMatrixBody is decodeBody for a matrix stream.
func decodeMatrixBody(body []byte, p core.Params) ([][]core.MatrixReport, error) {
	rd, err := protocol.NewMatrixBatchReader(bytes.NewReader(body), matrixParams(p))
	if err != nil {
		return nil, err
	}
	var batches [][]core.MatrixReport
	for {
		b, err := rd.Next(protocol.DefaultBatchSize)
		if err == io.EOF {
			return batches, nil
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
}

// oneBatch perturbs n of the first catalog column's values (fewer when
// the column is shorter): a batch for the microbenchmarks to encode,
// append and fold.
func (r *run) oneBatch(n int) []core.Report {
	w := r.w
	values := w.joinA[0].values
	return w.perturb(values[:min(n, len(values))], w.fams[0], rand.New(rand.NewSource(w.seed)))
}

// try keeps the first error a microbenchmark body meets; the layer pass
// returns it.
func (r *run) try(err error) {
	if err != nil && r.microErr == nil {
		r.microErr = err
	}
}

// microStore times the store's exported operations on scratch stores of
// their own: an append of one 64-report batch with and without fsync
// (flush policy is fsync-on everywhere in this benchmark except where a
// name says nosync), a 4×4096 append, and the checkpoint path's rotate,
// save and reopen.
func (r *run) microStore() {
	w, p, reps := r.w, r.w.cfg.params, r.w.cfg.microReps
	small, large := r.oneBatch(64), r.oneBatch(protocol.DefaultBatchSize)
	agg := fold(p, w.fams[0], large, 1)
	for _, noSync := range []bool{false, true} {
		dir, err := os.MkdirTemp(r.tmp, "store-")
		if err != nil {
			r.try(err)
			return
		}
		st, err := store.Open(dir, p, w.seed, store.Options{NoSync: noSync})
		if err != nil {
			r.try(err)
			return
		}
		appendSmall := func() { r.try(st.AppendReports("small", 0, [][]core.Report{small})) }
		if noSync {
			r.micro("store.append_small_nosync", reps, 1, nil, appendSmall)
		} else {
			r.micro("store.append_small", reps, 1, nil, appendSmall)
			r.micro("store.append_bulk", reps/4, 1, nil, func() {
				r.try(st.AppendReports("large", 0, [][]core.Report{large, large, large, large}))
			})
			var covered uint64
			rotate := func() {
				var err error
				covered, err = st.Rotate("small")
				r.try(err)
			}
			r.micro("store.rotate", reps/4, 1, appendSmall, rotate)
			r.micro("store.save_checkpoint", reps/10, 1, func() { appendSmall(); rotate() }, func() {
				r.try(st.SaveCheckpoint("small", covered, protocol.SnapshotOfAggregator(agg)))
			})
			r.micro("store.open", reps/10, 1, func() { r.try(st.Close()) }, func() {
				if reopened, err := store.Open(dir, p, w.seed, store.Options{}); err == nil {
					st = reopened
				} else {
					r.try(err)
				}
			})
		}
		r.try(st.Close())
		os.RemoveAll(dir)
	}
}

// microIngest times the fold of the two column kinds the ingest replay
// does not cover on every workload — plus and matrix — over set-up's
// streams: enqueue, then wait for the fold workers.
func (r *run) microIngest() {
	w, p := r.w, r.w.cfg.params
	eng := ingest.NewEngine(p, w.fams[0], ingest.Options{})
	defer eng.Close()

	_, group, batches, n, err := decodeBody(w.plusBody, p)
	r.try(err)
	pc := eng.NewPlusColumn(w.famS, w.famG)
	r.tr.do("ingest.fold_plus", 0, 0, n, func() {
		r.try(pc.EnqueueAllPooled(group, batches))
		_, err := pc.State() // settles the folds
		r.try(err)
	})

	mb, err := decodeMatrixBody(w.matrixBody, p)
	r.try(err)
	mc := eng.NewMatrixColumn(matrixParams(p), w.fams[0], w.fams[1])
	r.tr.do("ingest.fold_matrix", 0, 0, w.cfg.reports, func() {
		r.try(mc.EnqueueAllPooled(mb))
		mc.Settle()
	})
}

// microService times the routes that do no sketch work — the floor every
// request pays — and the cost of building a request, which the harness
// adds between the requests of a closed loop.
func (r *run) microService() {
	w, reps := r.w, r.w.cfg.microReps
	c := &capture{hdr: http.Header{}}
	for name, target := range map[string]string{
		"service.healthz": "/v1/healthz",
		"service.status":  "/v1/columns/" + w.joinA[0].name,
		"service.stats":   "/v1/stats",
		"service.metrics": "/metrics",
	} {
		for i := 0; i < reps*5; i++ {
			c.buf = c.buf[:0]
			rep := c.serve(w.handler, &request{method: "GET", target: target})
			if rep.code != http.StatusOK {
				r.try(fmt.Errorf("GET %s: %d %s", target, rep.code, rep.body))
			}
			r.tr.root(name, i, rep.start, rep.lat)
		}
	}
	target := w.query[0].target
	r.micro("harness.request_build", reps, inner, nil, func() {
		for i := 0; i < inner; i++ {
			hr, err := http.NewRequest("GET", target, nil)
			r.try(err)
			clear(c.hdr)
			sink += float64(len(hr.URL.Path))
		}
	})
}
