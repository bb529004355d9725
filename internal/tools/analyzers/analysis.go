// Package analyzers is ldpjoinvet: a suite of static analyzers that
// mechanically enforce the cross-cutting invariants this codebase
// otherwise trusts to code review — no blocking I/O under a lock,
// atomic counters, pooled-buffer ownership transfer, and a single
// global lock-acquisition order. An analyzer stays only while it
// catches a bug no tier-1 test does (TestAnalyzersCatchLiveMutations);
// invariants the tests already hold — WAL-append-before-apply, the
// error envelope, stable encodings, allocation-free hot paths — are
// left to them.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf, testdata/src fixtures with
// `// want` expectations) so the analyzers could migrate onto the real
// framework wholesale if the module ever takes on that dependency.
// Until then everything here runs on the standard library alone: the
// loader shells out to `go list` for package metadata and type-checks
// from source, so the suite works offline and adds no module
// requirements.
//
// Beyond the per-package Run pass, the framework provides two pieces
// of shared dataflow infrastructure the analyzers build on:
//
//   - a lightweight def-use/alias walk (dataflow.go) that tracks a
//     value — and everything aliasing it through assignment,
//     sub-slicing, and range — in approximate execution order, with
//     branch merging and kills on reassignment; poolown is built on
//     it and any future ownership- or taint-style rule can be too;
//   - per-function summaries accumulated across packages in
//     Pass.Shared plus an optional Finish hook that runs once after
//     every package, which is how lockorder stitches a cross-package,
//     cross-function lock-acquisition graph out of per-package passes.
//
// # Waivers
//
// Every analyzer honors an explicit, attributable escape hatch:
//
//	//ldpjoinvet:ignore <analyzer> <reason>
//
// placed on the flagged line or on its own line immediately above. The
// reason is mandatory — a waiver without one is itself a diagnostic,
// as is a waiver naming an analyzer that does not exist (a typo there
// would otherwise silently waive nothing), and — when the
// waiverhygiene analyzer is in the run — so is a well-formed waiver
// that no longer suppresses anything (a burned-down waiver must be
// deleted, not left to rot).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. Name is the identifier
// used in diagnostics, waiver comments, and summaries; Doc is the
// one-paragraph contract it enforces.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error

	// Finish, when non-nil, runs once after Run has been applied to
	// every package, with the same Shared map each of those passes
	// saw. Analyzers whose findings are properties of the whole
	// program — lockorder's acquisition graph — accumulate summaries
	// per package in Run and report from Finish.
	Finish func(*FinishPass) error
}

// A Diagnostic is one finding, positioned and attributed to the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Shared is scratch state that survives across packages within one
	// Run invocation: every Pass handed to one analyzer during one
	// suite run shares the same map, and the analyzer's FinishPass
	// receives it last. Per-package analyzers ignore it.
	Shared map[string]any

	// lookup resolves an object in any package of the load (the
	// analyzed packages and their whole dependency closure), so
	// analyzers can fetch well-known types — net/http.ResponseWriter,
	// net.Conn — without the analyzed package importing them. Returns
	// nil when the package or name is absent from the closure.
	lookup func(pkgPath, name string) types.Object

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Path returns the package's import path normalized for analysis
// gating: the " [pkg.test]" suffix go list gives test variants is
// stripped, and an external test package maps to the package under
// test ("ldpjoin/internal/service_test" gates like ".../service"), so
// path-segment rules apply identically to production and test code.
func (p *Pass) Path() string {
	return normTestPkgPath(p.Pkg.Path())
}

// LookupType resolves pkgPath.name to its type, or nil when the
// package is not in the load's dependency closure.
func (p *Pass) LookupType(pkgPath, name string) types.Type {
	obj := p.lookup(pkgPath, name)
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// A FinishPass is an analyzer's whole-program view after every
// package's Run: the accumulated Shared state plus a position-explicit
// reporter (Finish has no single package to resolve positions in, so
// callers pass the token.Position they recorded during Run).
type FinishPass struct {
	Analyzer *Analyzer
	Shared   map[string]any

	report func(Diagnostic)
}

// ReportAt records a diagnostic at an explicit position.
func (p *FinishPass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// normPkgPath strips the " [pkg.test]" variant suffix go list attaches
// to test packages, leaving the importable path.
func normPkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// normTestPkgPath is normPkgPath plus folding an external test package
// onto the package it tests: ".../protocol_test" → ".../protocol".
func normTestPkgPath(path string) string {
	path = normPkgPath(path)
	if rest, ok := strings.CutSuffix(path, "_test"); ok {
		return rest
	}
	return path
}

// All returns the full ldpjoinvet suite, in the order summaries print.
func All() []*Analyzer {
	return []*Analyzer{
		LockIO, AtomicCounter, PoolOwn, LockOrder, WaiverHygiene,
	}
}
