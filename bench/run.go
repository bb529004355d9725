package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds a run's scratch data (removed on exit) and the trace files,
// relative to the working directory: bench/out when run from bench/.
const outDir = "out"

const (
	setupReps    = 3 // times set-up runs when its time is reported
	minTrials    = 3 // trials of a run, however short -seconds is
	tracedTrials = 3 // trials of a traced run that record spans
)

// processStart is as close to process start as Go code gets: setup_s
// counts from here to the first timed request.
var processStart = time.Now()

// runWorkload is one benchmark run: set up from the seed, run fixed-work
// trials for about `seconds`, check every output, and reduce the trials
// to the end-to-end metrics — or, traced, to the per-layer ones.
func runWorkload(cfg config, name string, seed int64, seconds float64, traced bool) (result, error) {
	wl, ok := cfg.workload(name)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return result{}, err
	}
	cleanup.set(tmp)
	defer cleanup.run()

	// Set-up, several times over when its time is reported, because one
	// sample of a few seconds does not repeat within a tenth.
	reps := setupReps
	if traced {
		reps = 1
	}
	beforeSetup := time.Since(processStart)
	var w *world
	var builds []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC() // the last catalog's matrix state, before the next is allocated
		}
		start := time.Now()
		if w, err = buildWorld(cfg, wl, seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	defer w.close()
	setupS := beforeSetup.Seconds() + median(builds)

	r := &run{w: w, tmp: tmp, check: &checker{w: w, seen: make(map[string][]checkedReply)}}
	if traced {
		r.tr = newTracer()
	}
	// Trials are fixed work, so counts repeat exactly; the time budget only
	// decides how many there are. A traced run records spans in its
	// second, fourth and sixth trial — neighbours of untraced ones, so the
	// tracing overhead is a paired comparison — and no more, because a
	// dash trial is 40,000 root spans.
	start := time.Now()
	for i := 0; i < minTrials || time.Since(start).Seconds() < seconds; i++ {
		if err := r.trial(traced && i%2 == 1 && i < 2*tracedTrials); err != nil {
			return result{}, fmt.Errorf("trial %d: %w", i, err)
		}
	}
	joinRE := r.probeJoin()

	res := result{Metrics: make(map[string]metricValue)}
	var values map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		if values, err = r.layers(filepath.Join(outDir, name+".trace.json")); err != nil {
			return result{}, fmt.Errorf("layer pass: %w", err)
		}
	} else {
		values = r.endToEnd(setupS, joinRE)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	r.summary(os.Stderr)
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return res, nil
}

// over reduces the trials to one number: the median over trials of f.
func (r *run) over(f func(*trialStats) float64) float64 {
	xs := make([]float64, len(r.trials))
	for i, t := range r.trials {
		xs[i] = f(t)
	}
	return median(xs)
}

// pooled gathers one latency series (µs) over every trial.
func (r *run) pooled(class int) []float64 {
	var all []float64
	for _, t := range r.trials {
		all = append(all, t.lat[class]...)
	}
	return all
}

func (r *run) endToEnd(setupS, joinRE float64) map[string]float64 {
	w := r.w
	p50 := func(class int) float64 {
		return r.over(func(t *trialStats) float64 { return median(t.lat[class]) })
	}
	t0 := r.trials[0]
	return map[string]float64{
		"setup_s": setupS,
		"ingest_reports_per_s": r.over(func(t *trialStats) float64 {
			return float64(w.reports) / t.ingestWall.Seconds()
		}),
		"ingest_ack_p50_us": p50(opIngest),
		"finalize_p50_ms":   r.over(func(t *trialStats) float64 { return median(t.finalizeMS) }),
		"recover_s_per_gb": r.over(func(t *trialStats) float64 {
			return t.recoverS / (float64(t.walBytes) / 1e9)
		}),
		"wal_bytes_per_report": float64(t0.walBytes) / float64(w.reports+w.prepReports()),
		"join_p50_us":          p50(opJoin),
		"freq_p50_us":          p50(opFreq),
		"chain_p50_us":         p50(opChain),
		"plusjoin_p50_us":      p50(opPlus),
		"query_ops_per_s": r.over(func(t *trialStats) float64 {
			return float64(len(w.query)) / t.queryWall.Seconds()
		}),
		"join_re_median": joinRE,
		"peak_rss_mb":    peakRSSMB(),
	}
}

// prepReports is how many reports the untimed per-trial prep appends to
// the WAL (they are in walBytes, so they belong in its denominator).
func (w *world) prepReports() int64 {
	var n int64
	for _, col := range w.ingestCols {
		if col.advance {
			n += int64(len(col.streams[0].reports))
		}
	}
	return n
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// summary prints what the result line has no room for: trial and sample
// counts, and the tail of each latency series with the percentile the
// sample supports.
func (r *run) summary(out *os.File) {
	w := r.w
	fmt.Fprintf(out, "bench: %s seed=%d: %d trials of %d ingest requests (%s, %d reports) + %d queries (%s); %d ops attempted, %d failed\n",
		w.wl.name, w.seed, len(r.trials), len(w.ingest), w.wl.ingest.name, w.reports, len(w.query), w.wl.query.name, r.attempted, r.failed)
	fmt.Fprintf(out, "bench:   a trial takes %.2fs: %.2fs timed ingest, %.2fs recovery, %.2fs timed queries, the rest restart, finalize and checks\n",
		r.over(func(t *trialStats) float64 { return t.wall.Seconds() }),
		r.over(func(t *trialStats) float64 { return t.ingestWall.Seconds() }),
		r.over(func(t *trialStats) float64 { return t.recoverS }),
		r.over(func(t *trialStats) float64 { return t.queryWall.Seconds() }))
	for i, t := range r.trials {
		fmt.Fprintf(out, "bench:   trial %2d traced=%-5v ingest %.4gM reports/s ack p50 %.1fus, recovery %.3fs, finalize p50 %.2fms; p50 join %.2fus freq %.2fus chain %.1fus plus %.2fus, %.0f ops/s\n",
			i, t.traced, float64(w.reports)/t.ingestWall.Seconds()/1e6, median(t.lat[opIngest]), t.recoverS, median(t.finalizeMS),
			median(t.lat[opJoin]), median(t.lat[opFreq]), median(t.lat[opChain]), median(t.lat[opPlus]), float64(len(w.query))/t.queryWall.Seconds())
	}
	for c, name := range spanNames {
		all := r.pooled(c)
		if len(all) == 0 {
			continue
		}
		v, pct := tail(all)
		fmt.Fprintf(out, "bench:   %-18s n=%-7d p50=%.1fus p%.4g=%.1fus\n", name, len(all), median(all), pct, v)
	}
}
