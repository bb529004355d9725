package main

import (
	"fmt"
	"math"

	"ldpjoin/internal/join"
)

// layers is the traced run's second half. The trials have already left a
// root span per handler call; this replays one trial's inputs through
// the layers, runs the microbenchmarks, and reduces all of it to the
// per-layer metrics. A layer's number is its spans' self time: duration
// minus the part child spans cover.
func (r *run) layers(tracePath string) (map[string]float64, error) {
	w, p := r.w, r.w.cfg.params
	depthMax, err := r.replayIngest()
	if err != nil {
		return nil, fmt.Errorf("ingest replay: %w", err)
	}
	if err := r.replayQueries(); err != nil {
		return nil, fmt.Errorf("query replay: %w", err)
	}
	r.microKernelCore()
	allocs := r.microProtocol()
	r.microStore()
	r.microIngest()
	r.microService()
	if r.microErr != nil {
		return nil, fmt.Errorf("microbenchmarks: %w", r.microErr)
	}
	freqAE, chainRE, plusRE := r.probeOthers()
	if err := r.tr.write(tracePath); err != nil {
		return nil, err
	}

	st := r.tr.selfTimes()
	// ns is the median self time per unit of a span name.
	ns := func(name string) float64 {
		s, ok := st[name]
		if !ok {
			return math.NaN()
		}
		return s.perUnit()
	}
	p99 := func(class int) float64 { v, _ := tail(r.pooled(class)); return v }

	m := map[string]float64{
		"protocol.decode_ns_per_report":        ns("protocol.decode"),
		"protocol.decode_plus_ns_per_report":   ns("protocol.decode_plus"),
		"protocol.decode_matrix_ns_per_report": ns("protocol.decode_matrix"),
		"protocol.decode_allocs_per_batch":     allocs,
		"protocol.wal_encode_ns_per_report":    ns("protocol.wal_encode"),
		"protocol.wal_decode_ns_per_report":    ns("protocol.wal_decode"),
		"protocol.snapshot_encode_us":          ns("protocol.snapshot_encode") / 1e3,
		"protocol.snapshot_decode_us":          ns("protocol.snapshot_decode") / 1e3,

		"store.append_us":              ns("store.append_small") / 1e3,
		"store.append_nosync_us":       ns("store.append_small_nosync") / 1e3,
		"store.fsync_share":            1 - ns("store.append_small_nosync")/ns("store.append_small"),
		"store.append_bulk_us":         ns("store.append_bulk") / 1e3,
		"store.appends":                r.over(func(t *trialStats) float64 { return float64(t.appends) }),
		"store.wal_bytes":              r.over(func(t *trialStats) float64 { return float64(t.walBytes) }),
		"store.background_checkpoints": r.over(func(t *trialStats) float64 { return float64(t.bgCkpts) }),
		"store.checkpoint_errors":      r.over(func(t *trialStats) float64 { return float64(t.ckptErrors) }),
		"store.rotate_us":              ns("store.rotate") / 1e3,
		"store.save_checkpoint_ms":     ns("store.save_checkpoint") / 1e6,
		"store.finalize_ms":            ns("store.finalize") / 1e6,
		"store.open_ms":                ns("store.open") / 1e6,
		"store.recover_self_s_per_gb":  ns("store.recover"), // ns per WAL byte is s per GB

		"ingest.enqueue_ns_per_report":     ns("ingest.enqueue"),
		"ingest.fold_plus_ns_per_report":   ns("ingest.fold_plus"),
		"ingest.fold_matrix_ns_per_report": ns("ingest.fold_matrix"),
		"ingest.queue_depth_max":           float64(depthMax),
		"ingest.finalize_us":               ns("ingest.finalize") / 1e3,
		"ingest.state_us":                  ns("ingest.state") / 1e3,

		"core.perturb_ns":          ns("core.perturb"),
		"core.fap_perturb_ns":      ns("core.fap_perturb"),
		"core.frequent_items_ms":   ns("core.frequent_items") / 1e6,
		"core.matrix_finalize_ms":  w.matrixFinalizeMS,
		"core.add_ns_per_report":   ns("core.add"),
		"core.finalize_us":         ns("core.finalize") / 1e3,
		"core.joinsize_us":         ns("core.joinsize") / 1e3,
		"core.frequency_median_ns": ns("core.frequency"),
		"core.chain_estimate_ms":   ns("core.chain_estimate") / 1e6,
		"core.plusjoin_us":         ns("core.plusjoin") / 1e3,
		"core.freq_ae_median":      freqAE,
		"core.chain_re_median":     chainRE,
		"core.plusjoin_re_median":  plusRE,

		"kernel.fwht_ns":        ns("kernel.fwht"),
		"kernel.fwht_scaled_ns": ns("kernel.fwht_scaled"),
		"kernel.dot_ns":         ns("kernel.dot"),
		"kernel.dot_shifted_ns": ns("kernel.dot_shifted"),
		"kernel.median_ns":      ns("kernel.median"),
		"kernel.join_flops":     float64(2 * p.K * p.M),

		"hashing.bucket_sign_ns": ns("hashing.bucket_sign"),

		"service.floor_us":          ns("service.healthz") / 1e3,
		"service.status_us":         ns("service.status") / 1e3,
		"service.stats_us":          ns("service.stats") / 1e3,
		"service.metrics_scrape_us": ns("service.metrics") / 1e3,
		"service.cache_evictions":   r.over(func(t *trialStats) float64 { return float64(t.evictions) }),
		"service.ingest_ack_p99_us": p99(opIngest),
		"service.join_p99_us":       p99(opJoin),
		"service.freq_p99_us":       p99(opFreq),
		"service.chain_p99_us":      p99(opChain),
		"service.plusjoin_p99_us":   p99(opPlus),
		"service.shutdown_ms":       r.over(func(t *trialStats) float64 { return t.shutdownMS }),
		"service.reopen_ckpt_ms":    r.over(func(t *trialStats) float64 { return t.reopenMS }),

		"harness.request_build_us": ns("harness.request_build") / 1e3,
		"harness.failed_share":     float64(r.failed) / float64(r.attempted),
	}

	// The fold of a report is its enqueue plus the wait for the workers to
	// land it; the replay is one goroutine, so the two add up.
	enq, settle := st["ingest.enqueue"], st["ingest.settle"]
	m["ingest.fold_ns_per_report"] = (enq.selfSum + settle.selfSum) / enq.unitSum

	var hits, lookups int64
	finalizeMax := 0.0
	for _, t := range r.trials {
		hits, lookups = hits+t.hits, lookups+t.lookups
		for _, ms := range t.finalizeMS {
			finalizeMax = max(finalizeMax, ms)
		}
	}
	m["service.cache_hit_ratio"] = float64(hits) / float64(lookups)
	m["service.finalize_max_ms"] = finalizeMax

	// What the handler adds over the layers it calls. A served join calls
	// the estimator only when the cache does not answer; when the median
	// join is a hit there is nothing to subtract.
	var served, computed int
	for _, t := range r.trials {
		served, computed = served+t.served[opJoin], computed+t.computed[opJoin]
	}
	m["service.join_self_us"] = median(r.pooled(opJoin))
	if 2*computed > served {
		m["service.join_self_us"] -= m["core.joinsize_us"]
	}
	// A reports request calls decode, append and enqueue in turn: the
	// replay's root span per request is their sum.
	m["service.ingest_self_us"] = median(r.pooled(opIngest)) - median(st["replay.reports"].dur)/1e3

	// Tracing costs what a traced trial's timed phases take over an
	// untraced one's.
	timed := func(traced bool) float64 {
		var xs []float64
		for _, t := range r.trials {
			if t.traced == traced {
				xs = append(xs, (t.ingestWall + t.queryWall).Seconds())
			}
		}
		return median(xs)
	}
	m["harness.trace_overhead_share"] = timed(true)/timed(false) - 1
	return m, nil
}

// probeOthers is the accuracy companion of probeJoin for the other three
// query kinds: served estimates against exact answers from the private
// values. Medians of the absolute error of frequencies of real items and
// of the relative error of chain and plus joins.
func (r *run) probeOthers() (freqAE, chainRE, plusRE float64) {
	w := r.w
	var fa, cr, pr []float64
	for i := 0; i < w.cfg.probes/5; i++ {
		a, v := i%len(w.joinA), uint64(i/len(w.joinA))
		op := w.freqOp(a, v)
		if got, ok := r.ask(&op); ok {
			var exact float64
			for _, d := range w.joinA[a].values {
				if d == v {
					exact++
				}
			}
			fa = append(fa, math.Abs(got.EstimateMedian-exact))
		}
	}
	mid := []join.PairTable{{A: w.matrix.a, B: w.matrix.b}}
	for i := 0; i < 8; i++ {
		a, b := i%len(w.joinA), i%len(w.joinB)
		op := w.chainOp(a, b)
		if got, ok := r.ask(&op); ok {
			exact := join.ChainSize(w.joinA[a].values, mid, w.joinB[b].values)
			cr = append(cr, math.Abs(got.Estimate-exact)/exact)
		}
	}
	for a := 0; a+1 < len(w.plus); a++ {
		op := w.plusOp(a, a+1)
		if got, ok := r.ask(&op); ok {
			exact := join.Size(w.plus[a].values, w.plus[a+1].values)
			pr = append(pr, math.Abs(got.Estimate-exact)/exact)
		}
	}
	return median(fa), median(cr), median(pr)
}
