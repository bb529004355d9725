// Command ldpjoind runs the LDP aggregation server over HTTP.
//
// Client gateways POST perturbed report streams into named columns —
// KindJoin streams into single-attribute join columns, KindMatrix
// streams into middle-table matrix columns, KindPlus streams into
// two-phase plus columns — and each request folds its reports into its
// column before it is acknowledged. Once columns are finalized the server
// answers pairwise join queries (GET /v1/join?left=A&right=B), chain
// (multi-way) join queries across adjacent attribute slots
// (GET /v1/join?path=A,AB,BC,C), and frequency queries, all memoized in
// a bounded query cache. See internal/service for the API and
// internal/ingest for the columns.
//
// With -data set the server is durable: accepted reports and merges are
// write-ahead logged (fsynced before the request is acknowledged),
// finalized sketches are persisted, and SIGINT/SIGTERM triggers a
// graceful shutdown that drains in-flight requests and checkpoints
// collecting columns. Restarting on the same -data directory (and the
// same -k/-m/-eps/-seed) recovers every column — byte-identically,
// because sketch state is linear. With -ckpt-bytes or -ckpt-interval a
// background checkpointer also snapshots busy columns while they keep
// ingesting and compacts the WAL segments the snapshot covers, bounding
// both recovery replay time and disk growth. See internal/store.
//
// GET /metrics serves Prometheus text exposition, and -tenant-rate /
// -tenant-burst turn on a per-tenant request rate limit keyed by the
// Authorization bearer token. Privacy budget accounting is the
// gateway's job: every report is ε-LDP before it leaves its client.
// See internal/service.
//
// Usage:
//
//	ldpjoind -addr :8080 -k 18 -m 1024 -eps 4 -seed 1 \
//	         -max-reports 16777216 -data /var/lib/ldpjoind \
//	         -ckpt-bytes 67108864
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/service"
	"ldpjoin/internal/store"
)

// Slow-client bounds on the listener. A client gets readHeaderTimeout to
// deliver its request line and headers and an idle keep-alive connection
// is reaped after idleTimeout, so parked sockets cannot pin goroutines
// and file descriptors forever. Body reads and response writes carry no
// deadline: a /reports or /merge upload is legitimately large and its
// duration is the client's bandwidth, not a fault.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	k := flag.Int("k", 18, "sketch depth (rows; at most 65535, the u16 the wire format carries)")
	m := flag.Int("m", 1024, "sketch width (columns, power of two)")
	eps := flag.Float64("eps", 4, "privacy budget epsilon")
	seed := flag.Int64("seed", 1, "public hash seed (shared with clients)")
	maxReports := flag.Int("max-reports", 0, "max reports per request body, which is also the per-request memory bound (0 = default; negative is refused)")
	attrs := flag.Int("attrs", 0, "join-attribute hash families derived from the seed; a chain over n attributes needs n (0 = default)")
	queryCache := flag.Int("query-cache", 0, "max memoized query results (0 = default; <0 disables memoization)")
	data := flag.String("data", "", "data directory for WAL + checkpoint durability (empty = in-memory only)")
	ckptBytes := flag.Int64("ckpt-bytes", 0, "background-checkpoint a column once this many WAL bytes accumulate past its last checkpoint (0 = disabled)")
	ckptInterval := flag.Duration("ckpt-interval", 0, "background-checkpoint a column with un-checkpointed WAL bytes after this much time (0 = disabled)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant request rate limit, requests/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst capacity of the rate limit (0 = 1)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	flag.Parse()

	srv, err := service.NewWithOptions(core.Params{K: *k, M: *m, Epsilon: *eps}, *seed, service.Options{
		MaxStreamReports:  *maxReports,
		Attributes:        *attrs,
		QueryCacheEntries: *queryCache,
		DataDir:           *data,
		Store:             store.Options{CheckpointBytes: *ckptBytes, CheckpointInterval: *ckptInterval},
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ldpjoind listening on %s (k=%d, m=%d, ε=%g, seed=%d", *addr, *k, *m, *eps, *seed)
	if *data != "" {
		fmt.Printf(", data=%s", *data)
	}
	fmt.Println(")")

	hs := &http.Server{
		Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Ordered teardown: stop accepting, drain in-flight requests, then
	// checkpoint — the checkpoint must cover every acknowledged request,
	// so it runs strictly after the listener has gone quiet.
	fmt.Println("ldpjoind shutting down: draining requests, checkpointing columns")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("draining HTTP server: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		log.Fatalf("checkpointing: %v (the WAL is intact; restart will replay it)", err)
	}
}
