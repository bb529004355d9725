package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
)

// child runs one workload in a process of its own — set-up time and peak
// memory are per process — and returns its result line.
func child(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		return res, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, jerr)
	}
	return res, nil // a run that failed its checks still printed its result
}

// header prints where the numbers come from.
func header(cfg config, seed int64, seconds float64) {
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		fs = fmt.Sprintf("0x%x", st.Type)
		if name, ok := map[int64]string{0xef53: "ext", 0x1021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}[int64(st.Type)]; ok {
			fs = name
		}
	}
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d C=%d seed=%d seconds=%g fs=%s K=%d M=%d eps=%g\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.clients, seed, seconds, fs,
		cfg.params.K, cfg.params.M, cfg.params.Epsilon)
}

// runAll prints every metric of every workload by name with its unit,
// from one untraced and one traced run each.
func runAll(cfg config, seed int64, seconds float64) error {
	header(cfg, seed, seconds)
	failed := 0
	for _, wl := range cfg.workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := child(wl.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			for _, d := range defs {
				fmt.Printf("%-15s %-38s %16.6g %s\n", wl.name, d.name, res.Metrics[d.name].Value, d.unit)
			}
			if trace == 0 {
				fmt.Printf("%-15s %-38s %16.6g %s\n", wl.name, "failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
			}
			failed += res.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their check", failed)
	}
	return nil
}

// runAgree does what the driver does before it accepts the benchmark:
// two sets of `runs` runs per workload, each run on its own seed. For
// every end-to-end metric it prints both medians, the quartiles, and
// the spread (interquartile range over median) beside the bound, and
// fails if a spread exceeds its bound or the second median is worse than
// the first by more than the bound. setup_s is held to the second rule
// only.
func runAgree(cfg config, seed int64, seconds float64, runs int) error {
	header(cfg, seed, seconds)
	fmt.Printf("%-15s %-22s %12s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median1", "median2", "q1", "q3", "spread", "drift", "bound")
	bad := 0
	for _, wl := range cfg.workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				res, err := child(wl.name, seed+int64(i), seconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					bad++
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			m1, m2 := median(sets[0][d.name]), median(sets[1][d.name])
			spread := 0.0
			var q1, q3 float64
			for s := range sets {
				a, b := quartiles(sets[s][d.name])
				if sp := (b - a) / median(sets[s][d.name]); sp >= spread {
					spread, q1, q3 = sp, a, b
				}
			}
			drift := (m2 - m1) / m1
			if d.better == "higher" {
				drift = -drift
			}
			verdict := ""
			if (spread > d.bound && d.name != "setup_s") || drift > d.bound {
				verdict = "  DISAGREES"
				bad++
			}
			fmt.Printf("%-15s %-22s %12.6g %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				wl.name, d.name, m1, m2, q1, q3, spread, drift, d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics disagree beyond their bound, or runs failed their checks", bad)
	}
	return nil
}
