package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces a single global lock-acquisition order across the
// service, store, and ingest packages, which layer their locks: the
// server's lifecycle mutex, each column's operation mutex (opMu) and
// the cache shard locks on top, the store's log locks and the ingest
// column locks beneath. The correct order — operations and the
// checkpointer alike take opMu, then the store/ingest locks; nothing
// takes opMu under a store or ingest lock — is exactly the kind of
// tribal knowledge a new writer inverts under deadline.
//
// Run records, per function, every lock acquisition with the locks
// already held and every direct call with the locks held at the call
// site, canonicalizing mutexes to package.Type.field (or
// package.func.var for locals). Finish stitches those summaries into
// a cross-package graph: an edge A→B means "B was acquired while A
// was held", either directly or transitively through a called
// function. Any strongly connected component with more than one lock
// is an inversion — two code paths that disagree about the order —
// and every edge inside the component is reported at an example
// acquisition site.
//
// Limitations, on purpose: indirect calls (function values, the
// checkpointer's callback) are not resolved, so an inversion threaded
// through a callback needs a human; and distinct instances of the
// same field (two columns' opMu) share a canonical name, so
// self-edges are skipped rather than reported — lockio owns
// double-acquisition on a single instance.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "report lock-acquisition order inversions across service/store/ingest",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

var lockOrderPkgs = []string{"service", "store", "ingest"}

func inLockOrderScope(pkgPath string) bool {
	for _, seg := range lockOrderPkgs {
		if pathHasSegment(pkgPath, seg) {
			return true
		}
	}
	return false
}

// lockAcq is one acquisition: which lock, where, and what was held.
type lockAcq struct {
	lock string
	pos  token.Position
	held []string
}

// lockCallSite is one direct call made while locks were held.
type lockCallSite struct {
	callee string
	pos    token.Position
	held   []string
}

// lockFuncSummary is one function's contribution to the graph.
type lockFuncSummary struct {
	acquires []lockAcq
	calls    []lockCallSite
}

func lockOrderSummaries(shared map[string]any) map[string]*lockFuncSummary {
	m, _ := shared["funcs"].(map[string]*lockFuncSummary)
	if m == nil {
		m = make(map[string]*lockFuncSummary)
		shared["funcs"] = m
	}
	return m
}

func runLockOrder(pass *Pass) error {
	if !inLockOrderScope(pass.Path()) {
		return nil
	}
	funcs := lockOrderSummaries(pass.Shared)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			key := lockFuncKey(obj)
			sum := funcs[key]
			if sum == nil {
				sum = &lockFuncSummary{}
				funcs[key] = sum
			}
			scanLockOrderFunc(pass, fn, key, sum)
		}
	}
	return nil
}

// scanLockOrderFunc runs the lock-state scanner over one declaration,
// including its function literals (a closure's acquisitions get their
// own scope suffix in local-lock names but contribute edges to the
// same summary — the edges are real regardless of when the closure
// runs, because they happen under whatever that closure itself
// acquired).
func scanLockOrderFunc(pass *Pass, fn *ast.FuncDecl, key string, sum *lockFuncSummary) {
	// canon maps the scanner's textual lock keys ("s.mu") to canonical
	// names; every held lock was acquired earlier in the same
	// function, so the map is always warm when we translate held sets.
	canon := make(map[string]string)
	ls := &lockScanner{info: pass.TypesInfo}
	ls.onAcquire = func(call *ast.CallExpr, name string, kind lockKind, held lockState) {
		_, recv := methodCall(pass.TypesInfo, call)
		if recv == nil {
			return
		}
		c := canonicalLockName(pass, key, recv)
		canon[name] = c
		sum.acquires = append(sum.acquires, lockAcq{
			lock: c,
			pos:  pass.Fset.Position(call.Pos()),
			held: canonHeld(canon, held),
		})
	}
	ls.visit = func(n ast.Node, held lockState) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := calleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil {
			return
		}
		if !inLockOrderScope(normPkgPath(callee.Pkg().Path())) {
			return
		}
		sum.calls = append(sum.calls, lockCallSite{
			callee: lockFuncKey(callee),
			pos:    pass.Fset.Position(call.Pos()),
			held:   canonHeld(canon, held),
		})
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch body := n.(type) {
		case *ast.FuncDecl:
			if body.Body != nil {
				ls.scanStmts(body.Body.List, lockState{})
			}
		case *ast.FuncLit:
			ls.scanStmts(body.Body.List, lockState{})
		}
		return true
	})
}

func canonHeld(canon map[string]string, held lockState) []string {
	var out []string
	for name := range held {
		if c, ok := canon[name]; ok {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// lockFuncKey names a function or method with its normalized package
// path: "ldpjoin/internal/service.Server.CheckpointNow".
func lockFuncKey(fn *types.Func) string {
	pkg := normPkgPath(fn.Pkg().Path())
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n, ok := deref(sig.Recv().Type()).(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// canonicalLockName names a mutex stably across functions and
// packages: a field becomes pkg.Type.field, a package-level var
// pkg.var, and a local falls back to funcKey.var (unique to its
// function, as it should be — a local mutex cannot participate in a
// cross-function order).
func canonicalLockName(pass *Pass, funcKey string, recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if base := deref(pass.TypesInfo.TypeOf(x.X)); base != nil {
			if n, ok := base.(*types.Named); ok && n.Obj().Pkg() != nil {
				return normPkgPath(n.Obj().Pkg().Path()) + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return normPkgPath(pass.Pkg.Path()) + "." + v.Name()
			}
			return funcKey + "." + v.Name()
		}
	}
	return normPkgPath(pass.Pkg.Path()) + "." + types.ExprString(recv)
}

// lockEdge is "to was acquired while from was held", with one example.
type lockEdge struct {
	from, to string
	pos      token.Position
	via      string // non-empty: the call chain head that acquired to
}

func finishLockOrder(fp *FinishPass) error {
	funcs := lockOrderSummaries(fp.Shared)

	// Transitive acquisition sets, to a fixpoint over the call graph.
	trans := make(map[string]map[string]bool, len(funcs))
	for key, sum := range funcs {
		set := make(map[string]bool)
		for _, a := range sum.acquires {
			set[a.lock] = true
		}
		trans[key] = set
	}
	for changed := true; changed; {
		changed = false
		for key, sum := range funcs {
			set := trans[key]
			for _, c := range sum.calls {
				for lock := range trans[c.callee] {
					if !set[lock] {
						set[lock] = true
						changed = true
					}
				}
			}
		}
	}

	// Candidate edges: direct acquisitions under held locks, plus
	// calls under held locks to functions that (transitively) acquire.
	var candidates []lockEdge
	keys := make([]string, 0, len(funcs))
	for k := range funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sum := funcs[key]
		for _, a := range sum.acquires {
			for _, h := range a.held {
				if h != a.lock {
					candidates = append(candidates, lockEdge{from: h, to: a.lock, pos: a.pos})
				}
			}
		}
		for _, c := range sum.calls {
			for lock := range trans[c.callee] {
				for _, h := range c.held {
					if h != lock {
						candidates = append(candidates, lockEdge{from: h, to: lock, pos: c.pos, via: c.callee})
					}
				}
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		// Prefer direct edges as the example, then earliest position.
		if (a.via == "") != (b.via == "") {
			return a.via == ""
		}
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	edges := make(map[[2]string]lockEdge)
	for _, e := range candidates {
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}

	// Strongly connected components over the lock graph; any SCC with
	// more than one lock is a cycle, and every edge inside it is an
	// order inversion worth its own diagnostic.
	adj := make(map[string][]string)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for _, vs := range adj {
		sort.Strings(vs)
	}
	comp := tarjanSCC(adj)
	var inversions []lockEdge
	for k, e := range edges {
		cf, okf := comp[k[0]]
		ct, okt := comp[k[1]]
		if okf && okt && cf.id == ct.id && cf.size > 1 {
			inversions = append(inversions, e)
		}
	}
	sort.Slice(inversions, func(i, j int) bool {
		a, b := inversions[i], inversions[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.from+a.to < b.from+b.to
	})
	for _, e := range inversions {
		cycle := comp[e.from].members
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via call to %s)", e.via)
		}
		fp.ReportAt(e.pos, "acquiring %s while holding %s%s inverts the lock order elsewhere; cycle: %s",
			e.to, e.from, via, strings.Join(cycle, " → "))
	}
	return nil
}

// sccInfo identifies a node's component.
type sccInfo struct {
	id      int
	size    int
	members []string // sorted, shared by all nodes of the component
}

// tarjanSCC computes strongly connected components of a string graph,
// iteratively (no recursion) for predictability on deep graphs.
func tarjanSCC(adj map[string][]string) map[string]*sccInfo {
	nodes := make([]string, 0, len(adj))
	seen := make(map[string]bool)
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	out := make(map[string]*sccInfo)
	compID := 0

	type frame struct {
		node string
		ei   int
	}
	for _, start := range nodes {
		if _, ok := index[start]; ok {
			continue
		}
		var callStack []frame
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		callStack = append(callStack, frame{node: start})
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.ei < len(adj[f.node]) {
				w := adj[f.node][f.ei]
				f.ei++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop: close component if root, propagate lowlink.
			if low[f.node] == index[f.node] {
				var members []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == f.node {
						break
					}
				}
				sort.Strings(members)
				info := &sccInfo{id: compID, size: len(members), members: members}
				compID++
				for _, m := range members {
					out[m] = info
				}
			}
			n := f.node
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[n] < low[p.node] {
					low[p.node] = low[n]
				}
			}
		}
	}
	return out
}
