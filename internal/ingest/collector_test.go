package ingest

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
	"ldpjoin/internal/protocol"
)

// TestCollectorOverPipes runs the full distributed workflow over
// net.Pipe connections: several client gateways stream perturbed reports
// concurrently, the column folds them as they arrive, and the resulting
// sketch estimates a join against a locally built sketch.
func TestCollectorOverPipes(t *testing.T) {
	p := core.Params{K: 9, M: 512, Epsilon: 4}
	fam := p.NewFamily(1)
	da := dataset.Zipf(2, 40000, 2000, 1.3)
	db := dataset.Zipf(3, 40000, 2000, 1.3)

	col := NewCollector(p, fam)
	const conns = 4
	var wg sync.WaitGroup
	chunk := len(da) / conns
	for i := 0; i < conns; i++ {
		cliEnd, srvEnd := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = col.ServeConn(srvEnd)
		}()
		go func(part []uint64, seed int64) {
			defer wg.Done()
			defer cliEnd.Close()
			w, err := protocol.NewReportWriter(cliEnd, p)
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for _, d := range part {
				if err := w.Write(core.Perturb(d, p, fam, rng)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			if err := w.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
		}(da[i*chunk:(i+1)*chunk], int64(100+i))
	}
	wg.Wait()
	if col.Streams() != conns {
		t.Fatalf("streams = %d, want %d", col.Streams(), conns)
	}
	skA, err := col.Finalize()
	if err != nil {
		t.Fatalf("collector error: %v", err)
	}
	if skA.N() != float64(len(da)) {
		t.Fatalf("collected %g reports, want %d", skA.N(), len(da))
	}

	// Attribute B built locally; estimate must be near the truth.
	aggB := core.NewAggregator(p, fam)
	aggB.CollectColumn(db, rand.New(rand.NewSource(7)))
	truth := join.Size(da, db)
	est := skA.JoinSize(aggB.Finalize())
	if re := math.Abs(est-truth) / truth; re > 0.5 {
		t.Fatalf("networked join RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

// TestCollectorOverTCP serves real localhost connections the way
// examples/protocolserver does: one goroutine per accepted connection.
func TestCollectorOverTCP(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	fam := p.NewFamily(9)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	defer l.Close()

	col := NewCollector(p, fam)
	serveErr := make(chan error, 1)
	go func() {
		var conns sync.WaitGroup
		defer func() { conns.Wait(); close(serveErr) }()
		for i := 0; i < 2; i++ {
			conn, err := l.Accept()
			if err != nil {
				serveErr <- err
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				_ = col.ServeConn(conn)
			}()
		}
	}()

	send := func(seed int64, n int) error {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		w, err := protocol.NewReportWriter(conn, p)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if err := w.Write(core.Perturb(uint64(i%50), p, fam, rng)); err != nil {
				return err
			}
		}
		return w.Flush()
	}
	if err := send(1, 500); err != nil {
		t.Fatal(err)
	}
	if err := send(2, 300); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if col.N() != 800 {
		t.Fatalf("accepted %d reports, want 800", col.N())
	}
	sk, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if sk.N() != 800 {
		t.Fatalf("collected %g reports, want 800", sk.N())
	}
}

func TestCollectorDoubleCloseSafe(t *testing.T) {
	p := core.Params{K: 2, M: 16, Epsilon: 1}
	col := NewCollector(p, p.NewFamily(1))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRecordsStreamError(t *testing.T) {
	p := core.Params{K: 2, M: 16, Epsilon: 1}
	col := NewCollector(p, p.NewFamily(1))
	cliEnd, srvEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- col.ServeConn(srvEnd) }()
	// Write garbage and close.
	if _, err := cliEnd.Write([]byte("garbage-not-a-header-xxxx")); err != nil {
		t.Fatal(err)
	}
	cliEnd.Close()
	if err := <-done; err == nil {
		t.Fatal("expected stream error")
	}
	if err := col.Close(); err == nil {
		t.Fatal("Close should surface the stream error")
	}
	if _, err := col.Finalize(); err == nil {
		t.Fatal("Finalize should surface the stream error")
	}
}
