package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective marks a function whose body must be allocation-free
// even outside internal/kernel (which is hot wholesale). It goes in
// the function's doc comment:
//
//	//ldpjoin:hotpath
//	func (s *Sketch) Frequency(item uint64) float64 { ... }
const hotpathDirective = "//ldpjoin:hotpath"

// HotAlloc enforces allocation-free hot paths: every function in
// internal/kernel, plus any function marked //ldpjoin:hotpath, must
// not allocate. The serving-path benchmarks gate on allocs/op == 0;
// this analyzer turns that runtime observation into a static contract
// that names the allocation site instead of failing a benchmark.
//
// Flagged inside a hot function: make/new, append that can grow (the
// sanctioned scratch idiom `x = append(x, ...)` — appending a slice
// back onto itself — is exempt), slice/map composite literals, &T{}
// allocations, function literals that capture variables (closures
// allocate), go statements, string concatenation, string↔[]byte
// conversions, and implicit interface conversions of non-pointer
// values (boxing). Constant arguments don't box — the compiler
// interns them — so panic("message") stays allowed.
//
// Test files are never hot, even in kernel: _test.go code allocates
// freely. The static rules are deliberately conservative heuristics;
// EscapeCrossCheck runs the real compiler's escape analysis
// (go build -gcflags=-m) and reports heap allocations in hot
// functions that the static rules missed, keeping the two in
// agreement.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "require kernel and //ldpjoin:hotpath functions to be allocation-free",
	Run:  runHotAlloc,
}

// hotFuncRec summarizes one hot function for the escape cross-check:
// where it lives and whether the static checks already flagged it.
type hotFuncRec struct {
	name       string
	file       string
	start, end int
	findings   int
}

func runHotAlloc(pass *Pass) error {
	kernelPkg := pathHasSegment(pass.Path(), "kernel")
	var recs []*hotFuncRec
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !kernelPkg && !hasDirective(fn.Doc, hotpathDirective) {
				continue
			}
			rec := &hotFuncRec{
				name:  fn.Name.Name,
				file:  file,
				start: pass.Fset.Position(fn.Pos()).Line,
				end:   pass.Fset.Position(fn.End()).Line,
			}
			h := &hotScan{pass: pass, rec: rec, declSig: funcDeclSig(pass.TypesInfo, fn)}
			h.scan(fn.Body)
			recs = append(recs, rec)
		}
	}
	prev, _ := pass.Shared["funcs"].([]*hotFuncRec)
	pass.Shared["funcs"] = append(prev, recs...)
	return nil
}

// hasDirective reports whether a function's doc comment carries the
// given //ldpjoin: directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

func funcDeclSig(info *types.Info, fn *ast.FuncDecl) *types.Signature {
	obj, _ := info.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// hotScan walks one hot function body.
type hotScan struct {
	pass    *Pass
	rec     *hotFuncRec
	declSig *types.Signature

	sanctioned map[*ast.CallExpr]bool
	lits       []*ast.FuncLit
}

func (h *hotScan) report(pos token.Pos, format string, args ...any) {
	h.rec.findings++
	h.pass.Reportf(pos, format, args...)
}

func (h *hotScan) scan(body *ast.BlockStmt) {
	info := h.pass.TypesInfo
	h.sanctioned = make(map[*ast.CallExpr]bool)

	// Pre-pass: sanction self-appends (x = append(x, ...) and
	// x = append(x[:0], ...) fill preallocated scratch without
	// growing in the steady state) and collect function literals so
	// return statements resolve against the right signature.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			h.lits = append(h.lits, x)
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
				return true
			}
			dst := call.Args[0]
			if sl, ok := ast.Unparen(dst).(*ast.SliceExpr); ok {
				dst = sl.X
			}
			if types.ExprString(ast.Unparen(x.Lhs[0])) == types.ExprString(ast.Unparen(dst)) {
				h.sanctioned[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			h.checkCall(x)
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				h.report(x.Pos(), "slice literal allocates on the hot path")
			case *types.Map:
				h.report(x.Pos(), "map literal allocates on the hot path")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					h.report(x.Pos(), "&composite literal allocates on the hot path")
				}
			}
		case *ast.FuncLit:
			if caps := closureCaptures(info, x); len(caps) > 0 {
				h.report(x.Pos(), "function literal captures %s; closures allocate on the hot path", strings.Join(caps, ", "))
			}
		case *ast.GoStmt:
			h.report(x.Pos(), "go statement allocates (goroutine spawn) on the hot path")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) && info.Types[x].Value == nil {
				h.report(x.Pos(), "string concatenation allocates on the hot path")
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					h.checkBox(info.TypeOf(lhs), x.Rhs[i], "assignment")
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, name := range x.Names {
					h.checkBox(info.TypeOf(name), x.Values[i], "assignment")
				}
			}
		case *ast.ReturnStmt:
			sig := h.sigAt(x.Pos())
			if sig == nil || len(x.Results) != sig.Results().Len() {
				return true
			}
			for i, res := range x.Results {
				h.checkBox(sig.Results().At(i).Type(), res, "return")
			}
		}
		return true
	})
}

// sigAt returns the signature governing a return statement at pos: the
// innermost enclosing function literal, or the declaration itself.
func (h *hotScan) sigAt(pos token.Pos) *types.Signature {
	sig := h.declSig
	for _, lit := range h.lits {
		if lit.Pos() <= pos && pos < lit.End() {
			if s, ok := h.pass.TypesInfo.TypeOf(lit).(*types.Signature); ok {
				sig = s
			}
		}
	}
	return sig
}

func (h *hotScan) checkCall(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	if id := builtinName(info, call); id != "" {
		switch id {
		case "make":
			h.report(call.Pos(), "make allocates on the hot path; preallocate the scratch outside it")
		case "new":
			h.report(call.Pos(), "new allocates on the hot path")
		case "append":
			if !h.sanctioned[call] {
				h.report(call.Pos(), "append may grow and allocate; only the scratch idiom x = append(x, ...) is allocation-free here")
			}
		}
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion.
		if len(call.Args) != 1 {
			return
		}
		h.checkBox(tv.Type, call.Args[0], "conversion")
		if allocatingStringConv(info, tv.Type, call.Args[0]) {
			h.report(call.Pos(), "string/[]byte conversion copies and allocates on the hot path")
		}
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := callParamType(sig, i, call.Ellipsis.IsValid())
		if pt != nil {
			h.checkBox(pt, arg, "argument")
		}
	}
}

// checkBox flags an implicit interface conversion that heap-allocates:
// a non-constant, non-pointer-shaped value flowing into an interface.
func (h *hotScan) checkBox(dst types.Type, src ast.Expr, what string) {
	if dst == nil || !isIfaceType(dst) {
		return
	}
	info := h.pass.TypesInfo
	tv, ok := info.Types[src]
	if !ok || tv.Value != nil || tv.Type == nil {
		return
	}
	st := tv.Type
	if isIfaceType(st) || isPointerShaped(st) || isUntypedNil(st) {
		return
	}
	h.report(src.Pos(), "implicit conversion to interface boxes a %s value (allocates) in %s on the hot path", st.String(), what)
}

func callParamType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if ellipsis {
			return nil // passing a slice through ... doesn't convert elements
		}
		sl, ok := sig.Params().At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return sl.Elem()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return builtinName(info, call) == name
}

func isIfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isPointerShaped reports whether values of t fit an interface word
// without boxing: pointers, channels, maps, funcs, unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocatingStringConv reports string↔[]byte/[]rune conversions.
func allocatingStringConv(info *types.Info, dst types.Type, src ast.Expr) bool {
	st := info.TypeOf(src)
	if st == nil {
		return false
	}
	if tv, ok := info.Types[src]; ok && tv.Value != nil {
		return false
	}
	toString := isStringType(dst) && isByteOrRuneSlice(st)
	fromString := isStringType(st) && isByteOrRuneSlice(dst)
	return toString || fromString
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// closureCaptures lists the outer local variables a function literal
// captures: identifiers resolving to variables declared outside the
// literal that are neither package-level nor fields.
func closureCaptures(info *types.Info, lit *ast.FuncLit) []string {
	seen := make(map[*types.Var]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
