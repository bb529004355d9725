package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RowApply invokes fn(j) for every j in [0, n), spreading the calls
// across up to GOMAXPROCS goroutines. The rows are claimed from a
// shared atomic counter, so uneven row costs balance automatically; the
// calling goroutine participates instead of parking, which makes the
// single-row and single-CPU cases run inline with zero goroutine
// overhead. RowApply returns after every fn call has returned.
//
// fn is called concurrently from multiple goroutines and must therefore
// synchronize whatever state it shares across rows (the aggregator rows
// and matrix replicas of the finalize kernels share none; the ingest
// chunks and recovered columns share only what their locks guard).
// Results must not depend on call order — for the finalize and FI-scan
// kernels they cannot, since each row's computation reads and writes
// only that row.
func RowApply(n int, fn func(j int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			fn(j)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				fn(j)
			}
		}()
	}
	for {
		j := int(next.Add(1)) - 1
		if j >= n {
			break
		}
		fn(j)
	}
	wg.Wait()
}
