package analyzers

import (
	"go/ast"
	"go/types"
)

// PoolOwn enforces the pooled-buffer ownership contract from
// internal/protocol's batch pools: once a call transfers ownership of
// a pooled slice — EnqueueAllPooled on an ingest column (the batches
// are recycled after apply), enqueuePooled on the service package's
// per-kind column interface (the batch set it forwards to
// EnqueueAllPooled) and the service's reports operation above it (which
// is where a handler or a recovery callback gives its batch set away), a
// direct protocol.PutReportBatch /
// protocol.PutMatrixBatch, or, inside protocol, the Put of the generic
// batchPool both forward to — the caller must not read, write, store,
// return, or otherwise touch that value again, including through
// sub-slices and aliases. The pool may hand the backing array to a
// concurrent decoder immediately; a use-after-transfer is a data race
// that corrupts sketch updates without ever failing a test.
//
// The analysis runs everywhere (not just in ingest/protocol): any
// package can obtain and return pooled batches. The error-return idiom
// is understood — in `if err := col.EnqueueAllPooled(bs); err != nil`,
// the error branch still owns the batches (on failure they were not
// scheduled and remain the caller's), so only the fall-through path
// treats them as transferred.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "flag uses of pooled batches after EnqueueAllPooled or a protocol pool Put took ownership",
	Run:  runPoolOwn,
}

func runPoolOwn(pass *Pass) error {
	w := &ownWalk{
		info: pass.TypesInfo,
		classify: func(call *ast.CallExpr) ([]ast.Expr, string) {
			return classifyPoolConsumer(pass.TypesInfo, call)
		},
	}
	w.onUse = func(id *ast.Ident, c *ownConsumption) {
		pass.Reportf(id.Pos(), "%s used after %s took ownership (line %d); the pool may already have handed its backing array to another goroutine",
			id.Name, c.desc, pass.Fset.Position(c.pos).Line)
	}
	for _, f := range pass.Files {
		w.scanFile(f)
	}
	return nil
}

// classifyPoolConsumer recognizes the calls that take ownership of
// pooled storage. Matching is by name plus defining-package segment so
// the testdata fixture stand-ins exercise the same paths as the
// production packages.
func classifyPoolConsumer(info *types.Info, call *ast.CallExpr) ([]ast.Expr, string) {
	if fn, _ := methodCall(info, call); fn != nil {
		if fn.Name() == "EnqueueAllPooled" && receiverPkgLastSegment(fn) == "ingest" {
			// Ownership transfers for the slice-typed arguments (the
			// batches); scalar arguments like a plus-column group stay
			// the caller's.
			var args []ast.Expr
			for _, arg := range call.Args {
				if t := info.TypeOf(arg); t != nil {
					if _, ok := t.Underlying().(*types.Slice); ok {
						args = append(args, arg)
					}
				}
			}
			return args, "EnqueueAllPooled"
		}
		if fn.Name() == "enqueuePooled" && receiverPkgLastSegment(fn) == "service" {
			// The batch set is opaque here; all of it transfers.
			return call.Args, "enqueuePooled"
		}
		if fn.Name() == "reports" && receiverPkgLastSegment(fn) == "service" && len(call.Args) > 0 {
			// The reports operation enqueues its last argument, the
			// batch set; the column before it stays the caller's.
			return call.Args[len(call.Args)-1:], "the reports operation"
		}
		if fn.Name() == "Put" && receiverPkgLastSegment(fn) == "protocol" && len(call.Args) > 0 {
			recv := fn.Type().(*types.Signature).Recv().Type()
			if n, ok := deref(recv).(*types.Named); ok && n.Obj().Name() == "batchPool" {
				return call.Args[:1], "batchPool.Put"
			}
		}
		return nil, ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	switch fn.Name() {
	case "PutReportBatch", "PutMatrixBatch":
		if lastSegment(normPkgPath(fn.Pkg().Path())) == "protocol" && len(call.Args) > 0 {
			return call.Args[:1], "protocol." + fn.Name()
		}
	}
	return nil, ""
}
