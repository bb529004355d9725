// Distributed collection over TCP: the LDP workflow as a real
// client/server system.
//
// An aggregation server listens on localhost; several client gateways
// connect concurrently, stream their populations' perturbed reports over
// the binary wire protocol, and disconnect. Each connection folds its
// stream into the one column as it reads it; the server then answers a
// join query against a second, locally collected population.
//
// Run with: go run ./examples/protocolserver
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/join"
	"ldpjoin/internal/protocol"
)

func main() {
	params := core.Params{K: 18, M: 1024, Epsilon: 4}
	fam := params.NewFamily(1) // public: both sides derive it from the seed

	const nPerGateway, gateways, domain = 50_000, 4, 10_000
	colA := dataset.Zipf(2, nPerGateway*gateways, domain, 1.3)
	colB := dataset.Zipf(3, nPerGateway*gateways, domain, 1.3)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("aggregator listening on %s\n", l.Addr())

	// Accept one connection per gateway and serve each on its own
	// goroutine, so every gateway streams at once.
	collector := ingest.NewCollector(params, fam)
	serveDone := make(chan error, 1)
	go func() {
		var (
			conns sync.WaitGroup
			err   error
		)
		for g := 0; g < gateways && err == nil; g++ {
			var conn net.Conn
			if conn, err = l.Accept(); err == nil {
				conns.Add(1)
				go func() {
					defer conns.Done()
					_ = collector.ServeConn(conn)
				}()
			}
		}
		conns.Wait()
		serveDone <- err
	}()

	// Each gateway perturbs its shard client-side and streams the reports.
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shard := colA[g*nPerGateway : (g+1)*nPerGateway]
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				log.Fatalf("gateway %d: %v", g, err)
			}
			defer conn.Close()
			w, err := protocol.NewReportWriter(conn, params)
			if err != nil {
				log.Fatalf("gateway %d: %v", g, err)
			}
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for _, private := range shard {
				if err := w.Write(core.Perturb(private, params, fam, rng)); err != nil {
					log.Fatalf("gateway %d: %v", g, err)
				}
			}
			if err := w.Flush(); err != nil {
				log.Fatalf("gateway %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	skA, err := collector.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d streams, %.0f reports\n", collector.Streams(), skA.N())

	// Population B collected locally; estimate the join.
	aggB := core.NewAggregator(params, fam)
	aggB.CollectColumn(colB, rand.New(rand.NewSource(7)))
	est := skA.JoinSize(aggB.Finalize())
	truth := join.Size(colA, colB)
	fmt.Printf("exact join size: %.6g\n", truth)
	fmt.Printf("LDP estimate:    %.6g (RE %.2f%%)\n", est, 100*abs(est-truth)/truth)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
