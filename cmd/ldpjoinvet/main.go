// Command ldpjoinvet runs the ldpjoin invariant suite — five custom
// static analyzers enforcing the lock-vs-I/O, atomic-counter,
// pooled-ownership, lock-order and waiver-hygiene rules the codebase
// depends on (see internal/tools/analyzers). The first four are kept
// because each catches a bug no tier-1 test does:
// TestAnalyzersCatchLiveMutations plants one such bug per analyzer in a
// copy of internal/service. Waiver hygiene keeps their waivers honest.
//
// Usage:
//
//	go run ./cmd/ldpjoinvet [-json] ./...
//
// Test files are analyzed too: each package loads as its test variant,
// exactly as `go test` compiles it, so the contracts bind test code
// with waivers — not path exemptions — covering deliberate violations.
//
// Findings print in the vet format (file:line:col: analyzer: message),
// or as a JSON array of {file,line,col,analyzer,message} objects with
// -json — the shape CI turns into GitHub annotations. A clean run
// prints a per-analyzer summary of findings and waivers (suppressed
// under -json), so CI logs show what was checked rather than silence.
//
// Exit codes:
//
//	0  no findings
//	1  findings
//	2  the load itself failed: bad pattern, unresolvable package, or
//	   code that does not type-check
//
// Individual lines are suppressed with an attributable waiver comment:
//
//	//ldpjoinvet:ignore <analyzer> <reason>
//
// A waiver without a reason, naming an unknown analyzer, or — per the
// waiverhygiene analyzer — no longer suppressing anything is itself a
// finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"ldpjoin/internal/tools/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of vet-format lines")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ldpjoinvet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analyzers.LoadTests(dir, patterns...)
	if err != nil {
		fatal(err)
	}
	res, err := analyzers.Run(pkgs, analyzers.All())
	if err != nil {
		fatal(err)
	}
	diags := res.Diagnostics
	if *jsonOut {
		if err := analyzers.EncodeJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Printf("%s\n", d)
		}
		fmt.Fprintf(os.Stderr, "ldpjoinvet: %d finding(s) in %d package(s)\n", len(diags), res.Packages)
		os.Exit(1)
	}

	fmt.Printf("ldpjoinvet: %d package(s) clean\n", res.Packages)
	for _, a := range analyzers.All() {
		waived := ""
		if n := res.Waived[a.Name]; n > 0 {
			waived = fmt.Sprintf(" (%d waived)", n)
		}
		fmt.Printf("  %-14s %d finding(s)%s\n", a.Name, res.Findings[a.Name], waived)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldpjoinvet:", err)
	os.Exit(2)
}
