package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Barrier flags a second Wait on the same sync.WaitGroup with no
// intervening Add. After Wait returns the counter is zero; re-waiting a
// reused barrier without re-arming it returns immediately and
// synchronizes nothing, and neither go vet, the race detector nor any
// test notices. It is the one kind of WaitGroup misuse only an analyzer
// catches (DESIGN.md §10: Add inside the goroutine, Done off some path
// and a nested Pool.Run each fail a plain go test, so they are not
// checked here).
//
// The analysis is per function body and purely syntactic, in source
// order (no interprocedural flow); DESIGN.md §10 lists the known blind
// spot (Wait in a loop re-armed before the loop).
var Barrier = &Analyzer{
	Name: "barrier",
	Doc:  "sync.WaitGroup re-Wait without an intervening Add",
	Run:  runBarrier,
}

func runBarrier(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					barrierBody(pass, n.Body)
				}
			case *ast.FuncLit:
				barrierBody(pass, n.Body)
			}
			return true
		})
	}
}

// barrierBody checks one function body. Nested function literals are
// skipped here: the runBarrier walk gives each its own barrierBody call.
func barrierBody(pass *Pass, body *ast.BlockStmt) {
	type event struct {
		method string
		key    string
		pos    token.Pos
	}
	var events []event

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if method, key, ok := wgCall(pass, n); ok {
				events = append(events, event{method, key, n.Pos()})
			}
		}
		return true
	})

	// Linear source-order scan per WaitGroup.
	waited := make(map[string]bool)
	for _, ev := range events {
		switch ev.method {
		case "Add":
			waited[ev.key] = false
		case "Wait":
			if waited[ev.key] {
				pass.Reportf(ev.pos,
					"re-Wait of WaitGroup %s without an intervening Add: the counter is already zero, this Wait synchronizes nothing", ev.key)
			}
			waited[ev.key] = true
		}
	}
}

// wgCall reports whether call is sync.WaitGroup's Add or Wait, returning
// the method name and a stable textual key for the receiver (root
// variable plus selector path).
func wgCall(pass *Pass, call *ast.CallExpr) (method, key string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return "", "", false
	}
	switch fn.FullName() {
	case "(*sync.WaitGroup).Add", "(*sync.WaitGroup).Wait":
	default:
		return "", "", false
	}
	base, path := rootVarPath(pass, sel.X)
	if base == nil {
		return "", "", false
	}
	if path != "" {
		return fn.Name(), base.Name() + "." + path, true
	}
	return fn.Name(), base.Name(), true
}
