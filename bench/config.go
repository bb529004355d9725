package main

import (
	"runtime"

	"ldpjoin/internal/core"
)

// An ingestShape fixes the write traffic of one trial: a fixed request
// sequence into a fresh durable server.
type ingestShape struct {
	name string
	// joinCols join columns, then plusCols plus columns; the first half of
	// the plus columns is advanced before the timed phase and takes
	// low/high group reports, the rest stays in phase 1 and takes sample
	// reports.
	joinCols, plusCols int
	reportsPerRequest  int
	requests           int
	// checkpointBytes turns the background checkpointer on (0 = off).
	checkpointBytes int64
}

// A queryShape fixes the read traffic of one trial: a fixed op sequence
// against the finalized catalog. hot draws keys from a small fixed set
// (the query cache serves them); otherwise keys sweep the catalog so that
// one trial inserts more distinct keys than the cache holds and every
// request computes.
type queryShape struct {
	name                            string
	hot                             bool
	joins, freqs, chains, plusJoins int
	admin                           int // status + stats requests, hot shape only
}

type workload struct {
	name, why string
	ingest    ingestShape
	query     queryShape
}

// config is everything that sizes a run. The smoke test shrinks it; the
// benchmark proper always runs defaultConfig.
type config struct {
	params  core.Params
	clients int // closed-loop client goroutines, C
	cache   int // catalog query-cache entries (the daemon default)

	// The catalog the query phase reads: joinA join columns on attribute
	// 0, joinB on attribute 1, one matrix column spanning (0,1), plus
	// columns; reports Zipf(alpha) values each over [0, domain).
	joinA, joinB, plus int
	reports            int
	domain             uint64
	alpha, theta       float64

	probes    int // most pair joins the accuracy probe asks
	microReps int // samples per layer microbenchmark

	workloads []workload
}

// Every run drives the whole life of the system — collect, crash-recover,
// finalize, serve — because the benchmark contract wants every metric
// from every workload. A workload is the pair of shapes it gives the two
// phases: the phase it is named after is the one it varies, the other is
// the reference shape (bulk ingest, scan queries) kept short.
var (
	bulk = ingestShape{name: "bulk", joinCols: 8, reportsPerRequest: 16384, requests: 640}
	// bulkShort is the reference ingest phase of the query workloads.
	bulkShort = ingestShape{name: "bulk-short", joinCols: 8, reportsPerRequest: 16384, requests: 320}
	trickle   = ingestShape{name: "trickle", joinCols: 22, plusCols: 10, reportsPerRequest: 64, requests: 6400, checkpointBytes: 32 << 10}

	scan = queryShape{name: "scan", joins: 3200, freqs: 2400, chains: 24, plusJoins: 400}
	// scanShort is the reference query phase of the ingest workloads: the
	// same sweep (it must still outrun the cache) with fewer chain joins,
	// which are most of scan's time.
	scanShort = queryShape{name: "scan-short", joins: 3200, freqs: 2400, chains: 8, plusJoins: 400}
	dash      = queryShape{name: "dash", hot: true, joins: 14000, freqs: 14000, chains: 4000, plusJoins: 4000, admin: 4000}
)

func defaultConfig() config {
	return config{
		params:  core.Params{K: 18, M: 1024, Epsilon: 4},
		clients: min(runtime.NumCPU(), 2),
		cache:   4096,
		joinA:   96, joinB: 32, plus: 32,
		reports: 20000,
		domain:  4096,
		alpha:   1.1, theta: 0.08,
		probes:    4560,
		microReps: 200,
		workloads: []workload{
			{"ingest-bulk", "16,384-report batches amortise the fsync, so decode, WAL encode and fold do the work; recovery replays the whole WAL", bulk, scanShort},
			{"ingest-trickle", "64-report requests into 32 join and plus columns with background checkpoints: fsync is most of every ack", trickle, scanShort},
			{"query-scan", "keys sweep the catalog and never repeat inside the query cache, so estimator and kernel compute is most of each request", bulkShort, scan},
			{"query-dash", "a few keys asked again and again, all cache hits, so handler overhead is nearly all of each request", bulkShort, dash},
		},
	}
}

func (c config) workload(name string) (workload, bool) {
	for _, w := range c.workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
