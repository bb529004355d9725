package analyzers

import (
	"go/ast"
)

// Envelope enforces the PR 7 structured-error contract: every 4xx/5xx
// the API emits is the {"error":{code,message,column}} envelope — a
// route returns an apiError (apiErrorf / statusError in errors.go) and
// the one adapter writes it through writeAPIError — so clients can
// switch on stable machine-readable codes.
//
// Two shapes violate it: net/http.Error, which writes text/plain
// anywhere in the module, and a bare WriteHeader with a constant error
// status (>= 400) in a service package — the response body that
// follows (if any) is whatever the handler improvised, not the
// envelope. WriteHeader with a success status or a computed variable
// (the writers' own plumbing) is fine.
var Envelope = &Analyzer{
	Name: "envelope",
	Doc:  "HTTP errors must use the structured envelope helpers, not http.Error or bare error WriteHeader",
	Run:  runEnvelope,
}

func runEnvelope(pass *Pass) error {
	inService := pathHasSegment(pass.Path(), "service")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "net/http" && fn.Name() == "Error" {
				pass.Reportf(call.Pos(), "http.Error writes text/plain, not the structured error envelope; return an apiError (apiErrorf / statusError in errors.go)")
				return true
			}
			if !inService || fn.Name() != "WriteHeader" {
				return true
			}
			method, _ := methodCall(pass.TypesInfo, call)
			if method == nil || len(call.Args) != 1 {
				return true
			}
			rw := pass.LookupType("net/http", "ResponseWriter")
			if recvType := pass.TypesInfo.TypeOf(call.Fun.(*ast.SelectorExpr).X); !implementsType(recvType, rw) {
				return true
			}
			if status, ok := constIntValue(pass.TypesInfo, call.Args[0]); ok && status >= 400 {
				pass.Reportf(call.Pos(), "bare WriteHeader(%d) bypasses the structured error envelope; return an apiError (apiErrorf / statusError in errors.go)", status)
			}
			return true
		})
	}
	return nil
}
