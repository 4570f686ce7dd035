// Package determinism implements the cosmosvet analyzer that keeps
// wall-clock time, unseeded randomness, and map-iteration order out of
// the simulation core.
//
// The reproduction's headline claim — same seed, byte-identical
// message streams, byte-identical predictor accuracies — holds only if
// nothing in internal/{sim,machine,stache,network,reliable,faults,
// workload} consults a source of nondeterminism. Three leak classes
// are flagged:
//
//  1. Wall-clock reads: time.Now, time.Since, time.Until. Simulated
//     time comes from sim.Engine.Now, never from the host clock.
//  2. The global math/rand source (rand.Intn et al.), which Go seeds
//     randomly at process start. Seeded *rand.Rand values and the
//     repository's own splitmix64-style hashes are fine.
//  3. Ranging over a map when the loop body performs an
//     order-sensitive action: sending or delivering messages,
//     scheduling events, writing output, or appending to a slice that
//     is not subsequently sorted. Go randomizes map iteration order
//     per run, so any of these lets map order leak into the simulated
//     machine's behavior or into reports.
//
// Suppress a deliberate exception with
// //cosmosvet:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cosmos-coherence/cosmos/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, unseeded randomness, and order-sensitive " +
		"map iteration in the simulation core",
	Run: run,
}

// seededConstructors are the math/rand package-level functions that
// build explicitly seeded generators and are therefore allowed.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// sinkMethods are method names whose invocation inside a map-range
// body makes iteration order observable: message injection and
// delivery, event scheduling, and stream output.
var sinkMethods = map[string]string{
	"Send":        "sends a message",
	"SendPacket":  "sends a packet",
	"Deliver":     "delivers a message",
	"Post":        "schedules an event",
	"PostAfter":   "schedules an event",
	"Access":      "issues a memory access",
	"Write":       "writes output",
	"WriteString": "writes output",
	"WriteByte":   "writes output",
	"WriteRune":   "writes output",
	"Printf":      "writes output",
	"Fprintf":     "writes output",
}

// fmtPrinters are fmt package-level output functions (Sprint* excluded:
// formatting to a string has no ordering side effect by itself).
var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.InSimulationCore(pass.ModulePath, pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		checkCalls(pass, f)
		checkMapRanges(pass, f)
	}
	return nil
}

// checkCalls flags wall-clock reads and global-source randomness.
func checkCalls(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(),
					"wall-clock read time.%s in the simulation core; use the sim.Engine clock so runs stay seed-reproducible", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededConstructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"rand.%s uses the process-global random source, which is seeded unpredictably; draw from an explicitly seeded *rand.Rand or a keyed hash", fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges flags map iteration whose body performs an
// order-sensitive action.
func checkMapRanges(pass *analysis.Pass, f *ast.File) {
	// Walk per top-level function so "sorted later in this function"
	// can be resolved for append targets.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkRangeBody(pass, fd.Body, rng)
			return true
		})
	}
}

// checkRangeBody inspects one map-range loop for order-sensitive
// sinks.
func checkRangeBody(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if what, name, ok := sinkCall(pass, n); ok {
				pass.Reportf(rng.For,
					"map iteration order reaches %s (%s); iterate a sorted key slice instead", name, what)
			}
		case *ast.AssignStmt:
			checkAppend(pass, funcBody, rng, n)
		}
		return true
	})
}

// sinkCall reports whether call is an order-sensitive sink, returning
// a description and the callee name.
func sinkCall(pass *analysis.Pass, call *ast.CallExpr) (what, name string, ok bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtPrinters[fn.Name()] {
		return "writes output", "fmt." + fn.Name(), true
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		if what, isSink := sinkMethods[fn.Name()]; isSink {
			return what, fn.Name(), true
		}
	}
	return "", "", false
}

// checkAppend flags `outer = append(outer, ...)` inside a map range
// when outer is declared outside the loop and never sorted afterwards
// in the same function — the collect-then-sort idiom is the sanctioned
// fix and stays silent.
func checkAppend(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		ident, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(ident)
		if obj == nil {
			continue
		}
		// Declared inside the loop: each iteration gets a fresh slice,
		// order cannot accumulate.
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			continue
		}
		if sortedAfter(pass, funcBody, rng.End(), obj) {
			continue
		}
		pass.Reportf(rng.For,
			"map iteration appends to %s in nondeterministic order and %s is never sorted afterwards; sort it or iterate sorted keys", obj.Name(), obj.Name())
	}
}

// sortedAfter reports whether obj is passed to a sort or slices
// ordering function after pos within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= pos {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeFunc resolves the called function or method, or nil for
// builtins, type conversions, and dynamic calls through variables.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}
