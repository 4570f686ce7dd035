// Package hotpath implements the cosmosvet analyzer that keeps
// annotated zero-allocation paths allocation-free.
//
// A function opts in with a directive in its doc comment:
//
//	//cosmosvet:hotpath
//	func (h *eventHeap) push(it item) { ... }
//
//	//cosmosvet:hotpath loops
//	func evaluateSlot(...) { ... }
//
// The bare form checks the whole function body; the `loops` form
// checks only the bodies of its for/range loops (setup allocations
// before the loop are the normal way to keep the loop itself clean).
// From the checked region the analyzer walks same-package static
// calls — bounded by the hotpath.maxdepth config, default 8 — and
// flags heap-allocating constructs anywhere in the closure:
//
//   - make, new, and append (which may grow its backing array)
//   - function literals (closure captures escape)
//   - &T{} composite literals, and slice/map literals
//   - string concatenation and fmt.* calls
//   - interface boxing: concrete values passed to interface
//     parameters, assigned to interface variables, or converted
//
// Constructs inside panic(...) arguments are exempt — a panicking
// simulator no longer has a hot path. Calls that leave the package,
// go through interfaces, or through stored function values are trust
// boundaries: the walk stops there (annotate the target package's
// functions to extend coverage). A function reachable from several
// roots is checked once, attributed to the first root that reaches it
// in source order, with the full call chain in the diagnostic.
//
// Deliberate allocations — amortized slice growth, once-per-object
// arena setup, per-frame bookkeeping — are suppressed the usual way
// with //cosmosvet:allow hotpath <reason>, which keeps every exception
// visible in cosmosvet's suppression report.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/analysis"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid heap-allocating constructs reachable from " +
		"//cosmosvet:hotpath-annotated functions",
	Run: run,
}

// root is one annotated function.
type root struct {
	fd    *ast.FuncDecl
	fn    *types.Func
	loops bool
}

func run(pass *analysis.Pass) error {
	roots, rootSet := collectRoots(pass)
	if len(roots) == 0 {
		return nil
	}
	cg := pass.CallGraph()
	maxDepth := pass.ConfigInt("maxdepth", 8)
	checked := map[*types.Func]bool{}

	for _, r := range roots {
		rootName := analysis.FuncDisplayName(r.fn)
		regions := []ast.Node{r.fd.Body}
		if r.loops {
			regions = loopRegions(r.fd.Body)
		}

		var calls []*types.Func
		callSeen := map[*types.Func]bool{}
		for _, region := range regions {
			walk(pass, region,
				func(pos token.Pos, desc string) {
					pass.Reportf(pos, "hot path %s: %s", rootName, desc)
				},
				func(callee *types.Func) {
					if cg.DeclOf(callee) == nil || rootSet[callee] || callSeen[callee] {
						return
					}
					callSeen[callee] = true
					calls = append(calls, callee)
				})
		}
		sort.Slice(calls, func(i, j int) bool {
			return cg.DeclOf(calls[i]).Pos() < cg.DeclOf(calls[j]).Pos()
		})

		for _, callee := range calls {
			parent := cg.Reachable(callee, maxDepth-1, func(fn *types.Func) bool { return rootSet[fn] })
			fns := []*types.Func{callee}
			for fn := range parent {
				fns = append(fns, fn)
			}
			sort.Slice(fns, func(i, j int) bool {
				return cg.DeclOf(fns[i]).Pos() < cg.DeclOf(fns[j]).Pos()
			})
			for _, fn := range fns {
				if checked[fn] || rootSet[fn] {
					continue
				}
				checked[fn] = true
				chain := append([]string{rootName}, analysis.PathTo(parent, callee, fn)...)
				via := strings.Join(chain, " -> ")
				fnName := analysis.FuncDisplayName(fn)
				walk(pass, cg.DeclOf(fn).Body,
					func(pos token.Pos, desc string) {
						pass.Reportf(pos, "hot path %s: %s in %s (via %s)", rootName, desc, fnName, via)
					},
					nil)
			}
		}
	}
	return nil
}

// collectRoots finds every annotated function, in source order.
func collectRoots(pass *analysis.Pass) ([]root, map[*types.Func]bool) {
	var roots []root
	set := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, "//cosmosvet:hotpath")
				if !ok {
					continue
				}
				r := root{fd: fd}
				switch strings.TrimSpace(rest) {
				case "":
				case "loops":
					r.loops = true
				default:
					pass.Reportf(c.Pos(), "cosmosvet:hotpath: unknown scope %q (want nothing or \"loops\")", strings.TrimSpace(rest))
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				r.fn = fn
				roots = append(roots, r)
				set[fn] = true
				break
			}
		}
	}
	return roots, set
}

// loopRegions returns the outermost for/range statements of a body.
func loopRegions(body *ast.BlockStmt) []ast.Node {
	var regions []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			regions = append(regions, n)
			return false
		}
		return true
	})
	return regions
}

// walk traverses a region applying the hot-path rules: it reports each
// allocating construct once via report, feeds every statically-resolved
// call to onCall (when non-nil), skips panic arguments entirely, and
// does not descend into nested function literals beyond flagging them.
func walk(pass *analysis.Pass, region ast.Node, report func(token.Pos, string), onCall func(*types.Func)) {
	info := pass.TypesInfo
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "panic") {
				return false // failure path: a panicking run has no hot path
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				// Conversion, not a call.
				if len(n.Args) == 1 && boxes(info, tv.Type, n.Args[0]) {
					report(n.Pos(), "conversion to interface boxes its operand")
				}
				return true
			}
			switch {
			case isBuiltin(info, n.Fun, "make"):
				report(n.Pos(), "make allocates")
			case isBuiltin(info, n.Fun, "new"):
				report(n.Pos(), "new allocates")
			case isBuiltin(info, n.Fun, "append"):
				report(n.Pos(), "append may grow its backing array")
			default:
				if fn := analysis.StaticCallee(info, n); fn != nil {
					if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						report(n.Pos(), "call to fmt."+fn.Name()+" allocates")
						return true // args feed the flagged call; one finding is enough
					}
					if onCall != nil {
						onCall(fn)
					}
				}
				reportArgBoxing(pass, n, report)
			}
			return true

		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure")
			return false

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates")
					return false
				}
			}

		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}

		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if lt := info.TypeOf(lhs); lt != nil && boxes(info, lt, n.Rhs[i]) {
						report(n.Rhs[i].Pos(), "assignment boxes into an interface")
					}
				}
			}

		case *ast.ValueSpec:
			if n.Type != nil {
				if lt := info.TypeOf(n.Type); lt != nil {
					for _, v := range n.Values {
						if boxes(info, lt, v) {
							report(v.Pos(), "assignment boxes into an interface")
						}
					}
				}
			}
		}
		return true
	})
}

// reportArgBoxing flags concrete arguments passed to interface
// parameters of a call, the classic hidden allocation.
func reportArgBoxing(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass.TypesInfo, pt, arg) {
			report(arg.Pos(), "argument boxes into an interface parameter")
		}
	}
}

// boxes reports whether assigning rhs to an lhs of type lt converts a
// concrete value to an interface (untyped nil never boxes).
func boxes(info *types.Info, lt types.Type, rhs ast.Expr) bool {
	if lt == nil {
		return false
	}
	if _, ok := lt.Underlying().(*types.Interface); !ok {
		return false
	}
	rt := info.TypeOf(rhs)
	if rt == nil {
		return false
	}
	switch u := rt.Underlying().(type) {
	case *types.Interface:
		return false
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		// Pointer-shaped values live in the interface word directly.
		return false
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// isBuiltin reports whether fun resolves to the named builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
