package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathHasSegment reports whether pkgPath contains seg as a whole
// "/"-separated element — "internal/service" and the fixture path
// ".../testdata/src/poolown/service" both have segment "service",
// while "myservice" does not.
func pathHasSegment(pkgPath, seg string) bool {
	for part := range strings.SplitSeq(pkgPath, "/") {
		if part == seg {
			return true
		}
	}
	return false
}

// methodCall resolves call as a method call (through embedding and
// interfaces), returning the method object and the receiver
// expression. Returns nil when call is not a method call.
func methodCall(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return nil, nil
	}
	return fn, sel.X
}

// calleeFunc resolves call's callee as a function or method object
// (package-level funcs, pkg-qualified funcs, and methods). Returns nil
// for indirect calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if fn, _ := methodCall(info, call); fn != nil {
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamedType reports whether t (or *t) is exactly the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// implementsType reports whether t or *t implements the interface
// type ifaceType (which may be nil, meaning "unknown here": false).
func implementsType(t types.Type, ifaceType types.Type) bool {
	if t == nil || ifaceType == nil {
		return false
	}
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// receiverPkgLastSegment returns the last path segment of the package
// defining fn's receiver type, or "" when unknown. Used for matching
// "a method of some store-package type" against both the production
// package and fixture stand-ins. Test-variant suffixes ("pkg
// [pkg.test]") are stripped so the match holds under LoadTests.
func receiverPkgLastSegment(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return lastSegment(normPkgPath(fn.Pkg().Path()))
}

// isPlainInt reports whether t's underlying type is a plain
// (non-atomic) integer.
func isPlainInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isSyncLockerField reports whether t is sync.Mutex or sync.RWMutex.
func isSyncLockerField(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// isAtomicType reports whether t is one of the sync/atomic value types
// (atomic.Int64, atomic.Uint64, atomic.Bool, ...).
func isAtomicType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
