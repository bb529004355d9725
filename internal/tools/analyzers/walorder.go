package analyzers

import (
	"go/ast"
	"go/types"
)

// operationDirective marks a function as one of the service layer's
// column operations — the only functions that may mutate a collecting
// column, and the ones held to the append-before-apply order:
//
//	//ldpjoin:operation
const operationDirective = "//ldpjoin:operation"

// WALOrder enforces the PR 7 walGate contract in the service layer: a
// column's state may only change after the corresponding WAL append has
// succeeded. The order is decided in the column operations (reports,
// advance, merge — the //ldpjoin:operation functions the live handlers
// and WAL replay both run), so in packages with a "service" path
// segment the analyzer holds two rules:
//
//   - Inside an operation, every call that applies state to the ingest
//     engine (EnqueueAllPooled, Advance, MergeAggregator, MergePlus on an
//     ingest-package column) must be dominated — reached on every
//     control-flow path — by a store WAL append (AppendReports,
//     AppendMatrixReports, AppendPlusReports, AppendPlusAdvance,
//     AppendMerge, Finalize, FinalizePlus on a store-package receiver).
//   - Outside the operations, no such apply may appear at all: a handler,
//     a recovery callback or a helper that wants to mutate a column calls
//     an operation. This is the cheaper, inverse rule, and it is what
//     keeps a new write path from being written beside the checked one.
//
// The operations reach both sides through the service package's own
// per-kind column interface, so its methods count too: enqueuePooled
// and merge on a service-package receiver are applies, appendReports on
// one is an append. The one-line per-kind implementations of those two
// apply methods are what the names promise, and are exempt from the
// second rule; calling an operation is, of course, not an apply.
//
// The one sanctioned exception is built in: an append guarded only by
// a store-nil check (`if s.st != nil { ...append... }`) still counts
// as dominating, because a nil store is the explicit in-memory mode
// where nothing is durable by construction — and it is also how WAL
// replay runs the operations, before the server adopts its store: the
// records it applies are the log's own.
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc:  "WAL append must dominate the ingest apply in the service column operations, and nothing else may apply",
	Run:  runWALOrder,
}

// walApplyMethods are the ingest-side state mutations an operation acks.
var walApplyMethods = map[string]bool{
	"EnqueueAllPooled": true,
	"Advance":          true,
	"MergeAggregator":  true,
	"MergePlus":        true,
}

// walColumnApplyMethods and walColumnAppendMethods are the same two
// roles on the service package's per-kind column interface.
var (
	walColumnApplyMethods  = map[string]bool{"enqueuePooled": true, "merge": true}
	walColumnAppendMethods = map[string]bool{"appendReports": true}
)

// walAppendMethods are the store-side durability points.
var walAppendMethods = map[string]bool{
	"AppendReports":       true,
	"AppendMatrixReports": true,
	"AppendPlusReports":   true,
	"AppendPlusAdvance":   true,
	"AppendMerge":         true,
	"Finalize":            true,
	"FinalizePlus":        true,
}

func runWALOrder(pass *Pass) error {
	if !pathHasSegment(pass.Path(), "service") {
		return nil
	}
	w := &walOrderScan{pass: pass, operations: make(map[*types.Func]bool)}
	var operations, others []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok || fn.Body == nil:
			case hasDirective(fn.Doc, operationDirective):
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					w.operations[obj] = true
				}
				operations = append(operations, fn)
			case fn.Recv != nil && walColumnApplyMethods[fn.Name.Name]:
				// A per-kind implementation of a column apply method.
			default:
				others = append(others, fn)
			}
		}
	}
	for _, fn := range operations {
		w.scanStmts(fn.Body.List, false)
	}
	for _, fn := range others {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := w.applyCall(call); name != "" {
					pass.Reportf(call.Pos(), "ingest %s outside the column operations; a column is mutated only by a //ldpjoin:operation function, which appends to the WAL first", name)
				}
			}
			return true
		})
	}
	return nil
}

// walOrderScan is a path-sensitive walk tracking one boolean fact:
// "a WAL append has definitely executed on every path reaching here".
type walOrderScan struct {
	pass       *Pass
	operations map[*types.Func]bool // the package's //ldpjoin:operation functions
}

// scanStmts scans a statement sequence with the given entry fact and
// returns the fact after it plus whether all paths terminate.
func (w *walOrderScan) scanStmts(stmts []ast.Stmt, appended bool) (bool, bool) {
	for _, st := range stmts {
		var terminated bool
		appended, terminated = w.scanStmt(st, appended)
		if terminated {
			return appended, true
		}
	}
	return appended, false
}

func (w *walOrderScan) scanStmt(st ast.Stmt, appended bool) (bool, bool) {
	switch s := st.(type) {
	case *ast.ReturnStmt:
		w.checkExprs(st, appended)
		return appended, true
	case *ast.BranchStmt:
		return appended, true

	case *ast.BlockStmt:
		return w.scanStmts(s.List, appended)
	case *ast.LabeledStmt:
		return w.scanStmt(s.Stmt, appended)

	case *ast.IfStmt:
		if s.Init != nil {
			appended, _ = w.scanStmt(s.Init, appended)
		}
		w.checkExprs(s.Cond, appended)
		thenFact, thenTerm := w.scanStmts(s.Body.List, appended)
		elseFact, elseTerm := appended, false
		if s.Else != nil {
			elseFact, elseTerm = w.scanStmt(s.Else, appended)
		}
		// The in-memory-mode exemption: `if st != nil { append }` with
		// no else. When the store exists the append ran; when it is
		// nil there is nothing to order against. Either way the
		// contract downstream is satisfied.
		if !elseTerm && s.Else == nil && thenFact && w.isStoreNilCheck(s.Cond) {
			return true, false
		}
		switch {
		case thenTerm && elseTerm:
			return appended, true
		case thenTerm:
			return elseFact, false
		case elseTerm:
			return thenFact, false
		default:
			return thenFact && elseFact, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			appended, _ = w.scanStmt(s.Init, appended)
		}
		if s.Cond != nil {
			w.checkExprs(s.Cond, appended)
		}
		w.scanStmts(s.Body.List, appended)
		// Zero iterations are possible: the loop body's appends do not
		// count after the loop.
		return appended, false
	case *ast.RangeStmt:
		w.checkExprs(s.X, appended)
		w.scanStmts(s.Body.List, appended)
		return appended, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.scanCases(st, appended)

	default:
		w.checkExprs(st, appended)
		return appended || w.containsAppend(st), false
	}
}

// scanCases handles switch/select: each clause starts from the entry
// fact; the fact after the statement holds only if every non-taken
// path (including the implicit no-default fallthrough) holds it.
func (w *walOrderScan) scanCases(st ast.Stmt, appended bool) (bool, bool) {
	var body *ast.BlockStmt
	switch s := st.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			appended, _ = w.scanStmt(s.Init, appended)
		}
		if s.Tag != nil {
			w.checkExprs(s.Tag, appended)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			appended, _ = w.scanStmt(s.Init, appended)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := true
	hasDefault := false
	allTerminate := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
				stmts = c.Body
			} else {
				stmts = append([]ast.Stmt{c.Comm}, c.Body...)
			}
		}
		fact, term := w.scanStmts(stmts, appended)
		if !term {
			allTerminate = false
			out = out && fact
		}
	}
	if !hasDefault {
		out = out && appended
	}
	if len(body.List) > 0 && hasDefault && allTerminate {
		return appended, true
	}
	return out, false
}

// checkExprs reports any apply call inside n reached without a
// dominating append, and is also how appends inside expressions (the
// usual `if err := st.AppendReports(...)` form) take effect — the
// caller combines containsAppend for that.
func (w *walOrderScan) checkExprs(n ast.Node, appended bool) {
	if appended {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := w.applyCall(call); name != "" {
			w.pass.Reportf(call.Pos(), "ingest %s is not dominated by a store WAL append on every path; the walGate contract is append, then apply, then ack", name)
		}
		return true
	})
}

// containsAppend reports whether n contains a WAL append call.
func (w *walOrderScan) containsAppend(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && w.isAppendCall(call) {
			found = true
		}
		return !found
	})
	return found
}

// applyCall returns a description when call is an ingest-side apply.
func (w *walOrderScan) applyCall(call *ast.CallExpr) string {
	fn, recv := methodCall(w.pass.TypesInfo, call)
	if fn == nil || w.operations[fn] {
		return ""
	}
	switch receiverPkgLastSegment(fn) {
	case "ingest":
		if !walApplyMethods[fn.Name()] {
			return ""
		}
	case "service":
		if !walColumnApplyMethods[fn.Name()] {
			return ""
		}
	default:
		return ""
	}
	return types.ExprString(recv) + "." + fn.Name()
}

// isAppendCall reports whether call is a store-side WAL append.
func (w *walOrderScan) isAppendCall(call *ast.CallExpr) bool {
	fn, _ := methodCall(w.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	switch receiverPkgLastSegment(fn) {
	case "store":
		return walAppendMethods[fn.Name()]
	case "service":
		return walColumnAppendMethods[fn.Name()]
	}
	return false
}

// isStoreNilCheck matches `x != nil` where x is a store-package
// pointer — the explicit "durability disabled" mode check.
func (w *walOrderScan) isStoreNilCheck(cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "!=" {
		return false
	}
	operand := bin.X
	if isNilIdent(w.pass.TypesInfo, bin.X) {
		operand = bin.Y
	} else if !isNilIdent(w.pass.TypesInfo, bin.Y) {
		return false
	}
	t := w.pass.TypesInfo.TypeOf(operand)
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return lastSegment(n.Obj().Pkg().Path()) == "store"
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
