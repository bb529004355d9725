package analyzers

import (
	"go/ast"
	"go/types"
)

// lockKind distinguishes exclusive locks from shared (read) locks.
type lockKind int

const (
	lockShared lockKind = iota + 1
	lockExclusive
)

// lockState maps a mutex expression (rendered as source text, e.g.
// "s.mu" or "col.opMu") to the strongest lock kind currently held
// on it along the path being scanned.
type lockState map[string]lockKind

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge folds other into s, keeping the strongest kind per mutex — the
// conservative join for "might be held here".
func (s lockState) merge(other lockState) {
	for k, v := range other {
		if v > s[k] {
			s[k] = v
		}
	}
}

// lockScanner walks function bodies in approximate execution order,
// tracking which mutexes are held, and invokes visit on every
// statement and (non-FuncLit-nested) call expression with the state
// at that point.
//
// The walk is a small abstract interpreter, not a CFG: branches are
// scanned independently and merged (union of held locks over branches
// that fall through; branches ending in return/break/continue do not
// contribute). That makes the common early-return idiom precise —
//
//	mu.Lock()
//	if err != nil { mu.Unlock(); return }
//	... // mu still held here
//
// — while staying linear in the function size. A deferred Unlock keeps
// the mutex held for the rest of the function, which is exactly the
// semantics the analyzers care about ("held across whatever follows").
// Function literals are scanned as independent functions with an empty
// initial state; `go` statements are skipped entirely (the spawned
// work does not run under the caller's locks).
type lockScanner struct {
	info  *types.Info
	visit func(n ast.Node, held lockState)

	// onAcquire, when non-nil, fires at every Lock/RLock call with the
	// state held *before* the acquisition — exactly the "held while
	// acquiring" edges a lock-order analysis needs.
	onAcquire func(call *ast.CallExpr, name string, kind lockKind, held lockState)
}

// scanFile scans every function declaration and function literal in f.
func (ls *lockScanner) scanFile(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				ls.scanStmts(fn.Body.List, lockState{})
			}
		case *ast.FuncLit:
			ls.scanStmts(fn.Body.List, lockState{})
		}
		return true
	})
}

// scanStmts scans a statement sequence, returning the state after it
// and whether every path through it terminates (return/branch/panic).
func (ls *lockScanner) scanStmts(stmts []ast.Stmt, held lockState) (lockState, bool) {
	for _, st := range stmts {
		var terminated bool
		held, terminated = ls.scanStmt(st, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (ls *lockScanner) scanStmt(st ast.Stmt, held lockState) (lockState, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		ls.visitExprs(s.X, held)
		ls.applyLockOps(s.X, held)
		return held, false

	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held until the function
		// returns — no state change. Other deferred calls are visited
		// (their arguments evaluate now), but conservatively without
		// treating the call itself as running under the current locks.
		if op, _ := ls.lockOp(s.Call); op != "" {
			return held, false
		}
		for _, arg := range s.Call.Args {
			ls.visitExprs(arg, held)
		}
		return held, false

	case *ast.GoStmt:
		// The spawned goroutine does not run under the caller's locks;
		// its body (a FuncLit, typically) is scanned independently by
		// scanFile.
		return held, false

	case *ast.AssignStmt:
		ls.visit(s, held)
		for _, e := range s.Rhs {
			ls.visitExprs(e, held)
			ls.applyLockOps(e, held)
		}
		for _, e := range s.Lhs {
			ls.visitExprs(e, held)
		}
		return held, false

	case *ast.IncDecStmt:
		ls.visit(s, held)
		ls.visitExprs(s.X, held)
		return held, false

	case *ast.DeclStmt, *ast.SendStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				ls.visitExprs(e, held)
				return false
			}
			return true
		})
		return held, false

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.visitExprs(e, held)
		}
		return held, true

	case *ast.BranchStmt:
		// break/continue/goto leave the current path; their state does
		// not flow into the statements after the enclosing construct
		// along this walk.
		return held, true

	case *ast.BlockStmt:
		return ls.scanStmts(s.List, held)

	case *ast.LabeledStmt:
		return ls.scanStmt(s.Stmt, held)

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = ls.scanStmt(s.Init, held)
		}
		ls.visitExprs(s.Cond, held)
		thenState, thenTerm := ls.scanStmts(s.Body.List, held.clone())
		elseState, elseTerm := held.clone(), false
		if s.Else != nil {
			elseState, elseTerm = ls.scanStmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			thenState.merge(elseState)
			return thenState, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = ls.scanStmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.visitExprs(s.Cond, held)
		}
		bodyState, _ := ls.scanStmts(s.Body.List, held.clone())
		if s.Post != nil {
			bodyState, _ = ls.scanStmt(s.Post, bodyState)
		}
		held.merge(bodyState)
		return held, false

	case *ast.RangeStmt:
		ls.visitExprs(s.X, held)
		bodyState, _ := ls.scanStmts(s.Body.List, held.clone())
		held.merge(bodyState)
		return held, false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = ls.scanStmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.visitExprs(s.Tag, held)
		}
		return ls.scanCaseBodies(s.Body, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = ls.scanStmt(s.Init, held)
		}
		return ls.scanCaseBodies(s.Body, held)

	case *ast.SelectStmt:
		return ls.scanCaseBodies(s.Body, held)

	default:
		return held, false
	}
}

// scanCaseBodies scans each clause of a switch/select body from the
// same entry state and merges the fall-through results.
func (ls *lockScanner) scanCaseBodies(body *ast.BlockStmt, held lockState) (lockState, bool) {
	out := held.clone()
	hasDefault := false
	allTerminate := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				ls.visitExprs(e, held)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
			if c.Comm != nil {
				stmts = append([]ast.Stmt{c.Comm}, stmts...)
			}
		}
		st, term := ls.scanStmts(stmts, held.clone())
		if !term {
			allTerminate = false
			out.merge(st)
		}
	}
	return out, hasDefault && allTerminate && len(body.List) > 0
}

// visitExprs reports every call expression inside e (skipping nested
// function literals) to the visit callback with the current state.
func (ls *lockScanner) visitExprs(e ast.Expr, held lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			ls.visit(call, held)
		}
		return true
	})
}

// applyLockOps mutates held for any mutex Lock/Unlock calls in e.
// Only direct statement-level calls change state; a Lock buried in an
// argument list is unusual enough to ignore.
func (ls *lockScanner) applyLockOps(e ast.Expr, held lockState) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	op, name := ls.lockOp(call)
	switch op {
	case "Lock":
		if ls.onAcquire != nil {
			ls.onAcquire(call, name, lockExclusive, held)
		}
		held[name] = lockExclusive
	case "RLock":
		if ls.onAcquire != nil {
			ls.onAcquire(call, name, lockShared, held)
		}
		if held[name] < lockShared {
			held[name] = lockShared
		}
	case "Unlock", "RUnlock":
		delete(held, name)
	}
}

// lockOp classifies call as a sync.Mutex/RWMutex lock operation,
// returning the method name and the receiver's source text (the key
// identifying the mutex). Promoted methods of embedded mutexes
// resolve to the sync package too.
func (ls *lockScanner) lockOp(call *ast.CallExpr) (op, name string) {
	fn, recv := methodCall(ls.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), types.ExprString(recv)
	}
	return "", ""
}
