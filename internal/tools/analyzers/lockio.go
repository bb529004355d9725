package analyzers

import (
	"go/ast"
	"go/types"
)

// LockIO flags code that holds a sync.Mutex or sync.RWMutex across a
// blocking I/O call — the PR 5 bug class, where handleStatus and
// handleStats held the lifecycle mutex across writeJSON and a stalled
// client could park every ingest request behind a parked socket write.
//
// The rule: snapshot under the lock, unlock, then write. Blocking
// calls are writes to an http.ResponseWriter (including wrappers that
// implement it), net.Conn reads/writes, *os.File Write/Sync,
// (*bufio.Writer).Flush, (*json.Encoder).Encode, fmt.Fprint* to any
// of those sinks, and this module's writeJSON / writeAPIError helpers.
//
// Intentional holds — a WAL serializing appends under its own mutex —
// are waived in place: //ldpjoinvet:ignore lockio <reason>.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "flag blocking I/O performed while a sync.Mutex/RWMutex is held",
	Run:  runLockIO,
}

func runLockIO(pass *Pass) error {
	responseWriter := pass.LookupType("net/http", "ResponseWriter")
	conn := pass.LookupType("net", "Conn")

	ls := &lockScanner{
		info: pass.TypesInfo,
		visit: func(n ast.Node, held lockState) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(held) == 0 {
				return
			}
			what := blockingIO(pass, call, responseWriter, conn)
			if what == "" {
				return
			}
			for mu := range held {
				pass.Reportf(call.Pos(), "%s while %s is held; snapshot under the lock, release it, then perform I/O", what, mu)
			}
		},
	}
	for _, f := range pass.Files {
		ls.scanFile(f)
	}
	return nil
}

// blockingIO classifies call as a blocking I/O operation, returning a
// human-readable description or "" when it is not one.
func blockingIO(pass *Pass, call *ast.CallExpr, responseWriter, conn types.Type) string {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}

	// This module's two response writers, writeJSON and writeAPIError,
	// encode straight to the client socket.
	if fn.Pkg() != nil && fn.Pkg().Path() != "fmt" {
		switch fn.Name() {
		case "writeJSON", "writeAPIError":
			if fn.Type().(*types.Signature).Recv() == nil {
				return "call to " + fn.Name()
			}
		}
	}

	// fmt.Fprint* writing to a blocking sink.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && len(call.Args) > 0 {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil && isBlockingWriter(t, responseWriter, conn) {
				return "fmt." + fn.Name() + " to a blocking writer"
			}
		}
		return ""
	}

	// Method calls on blocking sinks.
	method, recv := methodCall(pass.TypesInfo, call)
	if method == nil {
		return ""
	}
	recvType := pass.TypesInfo.TypeOf(recv)
	if recvType == nil {
		return ""
	}
	switch method.Name() {
	case "Write", "WriteString", "WriteHeader", "ReadFrom", "Read":
		if isBlockingWriter(recvType, responseWriter, conn) {
			return "blocking " + types.ExprString(recv) + "." + method.Name()
		}
	case "Sync", "WriteAt":
		if isNamedType(recvType, "os", "File") {
			return "file " + method.Name()
		}
	case "Flush":
		if isBlockingWriter(recvType, responseWriter, conn) || isNamedType(recvType, "bufio", "Writer") {
			return "blocking " + types.ExprString(recv) + ".Flush"
		}
	case "Encode":
		if isNamedType(recvType, "encoding/json", "Encoder") {
			return "json.Encoder.Encode (writes to the underlying stream)"
		}
	}
	return ""
}

// isBlockingWriter reports whether t is a sink whose writes can block
// on the network or disk: anything implementing http.ResponseWriter or
// net.Conn, or *os.File.
func isBlockingWriter(t types.Type, responseWriter, conn types.Type) bool {
	return implementsType(t, responseWriter) ||
		implementsType(t, conn) ||
		isNamedType(t, "os", "File")
}
