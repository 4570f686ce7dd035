package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph holds the static, same-package call-graph facts for one
// pass: which declared function each *types.Func maps to, and which
// same-package declared functions each of them calls directly. Calls
// through interfaces, function values, and other packages are not
// edges — they are trust boundaries the analyzers handle at the call
// site instead of by traversal.
//
// The graph is built lazily by Pass.CallGraph and memoized, so the
// cost is paid once per (analyzer, package) and only when asked for.
type CallGraph struct {
	decls   map[*types.Func]*ast.FuncDecl
	callees map[*types.Func][]*types.Func
}

// CallGraph returns the package's call graph, building it on first use.
func (p *Pass) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

func buildCallGraph(p *Pass) *CallGraph {
	g := &CallGraph{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
		}
	}
	for fn, fd := range g.decls {
		seen := make(map[*types.Func]bool)
		var callees []*types.Func
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(p.TypesInfo, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, declared := g.decls[callee]; !declared {
				return true
			}
			seen[callee] = true
			callees = append(callees, callee)
			return true
		})
		// Deterministic edge order: by callee position, so every walk
		// (and therefore every diagnostic chain) is stable across runs.
		sort.Slice(callees, func(i, j int) bool {
			return g.decls[callees[i]].Pos() < g.decls[callees[j]].Pos()
		})
		g.callees[fn] = callees
	}
	return g
}

// DeclOf returns the declaration of a package function, or nil when fn
// is not declared (with a body) in this package.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl {
	return g.decls[fn]
}

// CalleesOf returns the same-package functions fn calls directly, in
// source order. The returned slice is shared; callers must not mutate.
func (g *CallGraph) CalleesOf(fn *types.Func) []*types.Func {
	return g.callees[fn]
}

// Reachable walks the graph breadth-first from root and returns, for
// every function reachable within maxDepth call edges (root itself
// excluded), the caller by which it was first discovered. The parent
// chain reconstructs a shortest call path back to root for
// diagnostics. maxDepth <= 0 means unbounded; stop prunes traversal
// below any function it reports true for (the function itself is
// still included).
func (g *CallGraph) Reachable(root *types.Func, maxDepth int, stop func(*types.Func) bool) map[*types.Func]*types.Func {
	parent := make(map[*types.Func]*types.Func)
	type item struct {
		fn    *types.Func
		depth int
	}
	queue := []item{{root, 0}}
	visited := map[*types.Func]bool{root: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		if cur.fn != root && stop != nil && stop(cur.fn) {
			continue
		}
		for _, callee := range g.callees[cur.fn] {
			if visited[callee] {
				continue
			}
			visited[callee] = true
			parent[callee] = cur.fn
			queue = append(queue, item{callee, cur.depth + 1})
		}
	}
	return parent
}

// PathTo renders the call chain root → ... → fn recorded by Reachable
// as display names. It returns nil if fn was not reached.
func PathTo(parent map[*types.Func]*types.Func, root, fn *types.Func) []string {
	if fn == root {
		return []string{FuncDisplayName(root)}
	}
	var rev []*types.Func
	for cur := fn; cur != root; {
		rev = append(rev, cur)
		p, ok := parent[cur]
		if !ok {
			return nil
		}
		cur = p
	}
	names := []string{FuncDisplayName(root)}
	for i := len(rev) - 1; i >= 0; i-- {
		names = append(names, FuncDisplayName(rev[i]))
	}
	return names
}

// StaticCallee resolves a call expression to the package-level
// function or method it statically invokes, or nil for builtins,
// conversions, function values, and interface-method calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method value through an interface has no static callee.
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// Calls through an instantiation resolve to the generic declaration.
	return fn.Origin()
}

// FuncDisplayName renders a function for diagnostics: "Name" for
// plain functions, "Recv.Name" for methods.
func FuncDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
