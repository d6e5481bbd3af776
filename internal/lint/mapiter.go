package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIter flags `range` over a map whose loop body feeds order-sensitive
// sinks — formatted output (fmt.Print*/Fprint*), writer methods
// (Write/WriteString/Encode/...), or slice accumulation via append — in
// the packages whose artifacts must be byte-identical run-to-run
// (internal/experiments, cmd/). Go randomizes map
// iteration order, so a single such loop makes CSV rows, trace dumps, and
// returned slices differ between runs even under a fixed seed.
//
// The canonical fix is accepted by construction: collecting the keys,
// sorting, and ranging over the sorted slice ranges over a slice, not a
// map — and the key-collection loop itself is recognized, because an
// append whose target is later passed to a sort (sort.*, slices.Sort*)
// in the same function is order-laundering, not an order leak.
// Order-insensitive bodies (counting, summing, re-keying into another
// map) are not flagged.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "no ranging over maps where iteration order reaches output or caller-visible slices",
	Run:  runMapIter,
}

// orderSinkMethods are method names whose call inside a map-range body
// makes iteration order observable.
var orderSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteAll":    true,
	"Encode":      true,
	"Printf":      true,
	"Println":     true,
	"Print":       true,
}

func runMapIter(pass *Pass) {
	if !pathIn(pass.Pkg.Path, mapIterScope) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
		}
	}
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		sink, appendTarget := findOrderSink(pass, rs.Body)
		if sink == "" {
			return true
		}
		if appendTarget != nil && sortedAfter(pass, body, rs, appendTarget) {
			return true // keys collected for sorting: the approved idiom
		}
		pass.Reportf(rs.Pos(),
			"range over map feeds %s; iteration order is randomized — sort the keys and range over the sorted slice",
			sink)
		return true
	})
}

// findOrderSink returns a description of the first order-sensitive sink
// in body, or "" if the body is order-insensitive. When the sink is an
// append to a plain variable, the variable is also returned so the caller
// can check for a later sort.
func findOrderSink(pass *Pass, body *ast.BlockStmt) (string, *types.Var) {
	var sink string
	var appendTarget *types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := pass.Pkg.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				sink = "slice accumulation (append)"
				if id, ok := call.Args[0].(*ast.Ident); ok {
					appendTarget, _ = pass.Pkg.Info.Uses[id].(*types.Var)
				}
				return false
			}
		case *ast.SelectorExpr:
			obj := pass.Pkg.Info.Uses[fun.Sel]
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			isMethod := sig != nil && sig.Recv() != nil
			if !isMethod && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
				sink = "fmt output (" + fn.Name() + ")"
				return false
			}
			if isMethod && orderSinkMethods[fn.Name()] {
				sink = "writer method " + fn.Name()
				return false
			}
		}
		return true
	})
	return sink, appendTarget
}

// sortedAfter reports whether target is passed to a sorting function
// (package sort or slices) after the range statement, anywhere in the
// enclosing function body — the order-laundering step that makes
// append-accumulation from a map range deterministic.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, target *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		// The sorted value may be wrapped (sort.Sort(byName(keys))), so
		// scan the argument subtrees for the accumulation target.
		for _, arg := range call.Args {
			hit := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if v, _ := pass.Pkg.Info.Uses[id].(*types.Var); v == target {
						hit = true
						return false
					}
				}
				return true
			})
			if hit {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
