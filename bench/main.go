// Command bench is the repository's benchmark: four workloads over the
// aggregation service's public surface, called in-process, with the
// end-to-end metrics a user sees and — on a traced run — the per-layer
// metrics that explain them. See README.md in this directory.
//
//	go run . -workload ingest-bulk -seed 1 -seconds 20 -trace 0
//	go run . -all        every metric of every workload, by name, with units
//	go run . -agree      two sets of runs, held against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// tmpDir is the one directory every data dir of a run lives under; it is
// removed on every way out, signals included.
type tmpDir struct {
	mu   sync.Mutex
	path string
}

var cleanup tmpDir

func (t *tmpDir) set(path string) {
	t.mu.Lock()
	t.path = path
	t.mu.Unlock()
}

func (t *tmpDir) run() {
	t.mu.Lock()
	if t.path != "" {
		os.RemoveAll(t.path)
		t.path = ""
	}
	t.mu.Unlock()
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: ingest-bulk, ingest-trickle, query-scan or query-dash")
		seed         = flag.Int64("seed", 1, "every input is generated from this")
		seconds      = flag.Float64("seconds", 20, "how long a run measures; trials are fixed work, this sets how many")
		trace        = flag.Int("trace", 0, "1 records spans, replays the layers and reports the per-layer metrics instead")
		all          = flag.Bool("all", false, "run every workload untraced and traced and print every metric")
		agree        = flag.Bool("agree", false, "run two sets of -runs runs per workload and hold them against the bounds")
		runs         = flag.Int("runs", 10, "runs per workload and set for -agree, each on its own seed")
	)
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE) // SIGPIPE: a reader like head closing our stderr
	go func() {
		<-sig
		cleanup.run()
		os.Exit(130)
	}()

	cfg := defaultConfig()
	var err error
	switch {
	case *all:
		err = runAll(cfg, *seed, *seconds)
	case *agree:
		err = runAgree(cfg, *seed, *seconds, *runs)
	default:
		var res result
		res, err = runWorkload(cfg, *workloadName, *seed, *seconds, *trace != 0)
		if err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				err = fmt.Errorf("%d of %d operations failed their check", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		cleanup.run()
		os.Exit(1)
	}
}
