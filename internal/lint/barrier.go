package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Barrier flags misuse of sync.WaitGroup and of the repository's
// epoch-barrier worker pools (internal/par.Pool and anything else listed
// in Config.BarrierPools):
//
//   - B1: wg.Add called inside the goroutine it accounts for. The Add
//     races the parent's Wait — if Wait runs first it sees a zero counter
//     and returns before the work happened. Add must precede the go
//     statement.
//   - B2: a goroutine whose wg.Done is not reachable on all paths — the
//     Done is nested under a branch, or an early return can bypass it.
//     `defer wg.Done()` as the goroutine's first act is always safe and
//     never flagged.
//   - B3: a second Wait on the same WaitGroup with no intervening Add.
//     After Wait returns the counter is zero; re-waiting a reused barrier
//     without re-arming it returns immediately and synchronizes nothing.
//   - B4: calling Pool.Run from inside a function already executing under
//     the same pool's Run. The epoch barrier makes Run non-reentrant:
//     the inner Run waits for workers that are all parked in the outer
//     Run's epoch — deadlock. Distinct pools may nest freely.
//
// The analysis is per function body and purely syntactic over the lock
// structure (no interprocedural flow); DESIGN.md §10 lists the known
// blind spots (Wait in a loop re-armed before the loop, Done hidden
// behind a helper call).
var Barrier = &Analyzer{
	Name: "barrier",
	Doc:  "sync.WaitGroup and epoch-pool misuse: Add racing Wait, Done not on all paths, re-Wait without Add, nested Pool.Run",
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
// skipped here — the runBarrier walk gives each its own barrierBody call
// — except goroutine literals, which get the B1/B2 goroutine checks.
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
			// Nested literals get their own barrierBody from runBarrier;
			// goroutine literals were handled by the GoStmt case before
			// descent reached them.
			return false
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				barrierGoroutine(pass, fl)
			}
			return true
		case *ast.CallExpr:
			if method, key, ok := wgCall(pass, n); ok {
				events = append(events, event{method, key, n.Pos()})
			}
			checkNestedPoolRun(pass, n)
		}
		return true
	})

	// B3: linear source-order scan per WaitGroup.
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

// barrierGoroutine applies B1 and B2 inside the body of `go func(){...}`.
func barrierGoroutine(pass *Pass, fl *ast.FuncLit) {
	type doneCall struct {
		call     *ast.CallExpr
		key      string
		deferred bool
		topLevel bool
	}
	var dones []doneCall
	var returns []*ast.ReturnStmt

	topLevel := make(map[*ast.CallExpr]bool)
	for _, stmt := range fl.Body.List {
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				topLevel[call] = true
			}
		}
	}

	inDefer := make(map[*ast.CallExpr]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != fl {
				return false
			}
		case *ast.DeferStmt:
			inDefer[n.Call] = true
		case *ast.ReturnStmt:
			returns = append(returns, n)
		case *ast.CallExpr:
			method, key, ok := wgCall(pass, n)
			if !ok {
				return true
			}
			switch method {
			case "Add":
				// B1 — unless the WaitGroup is local to this goroutine
				// (a private barrier armed and awaited inside it).
				if !declaredWithin(pass, n, fl) {
					pass.Reportf(n.Pos(),
						"wg.Add on %s inside the goroutine it accounts for races the parent's Wait; call Add before the go statement", key)
				}
			case "Done":
				dones = append(dones, doneCall{
					call: n, key: key,
					deferred: inDefer[n],
					topLevel: topLevel[n],
				})
			}
		}
		return true
	})

	// B2: a non-deferred Done must be a top-level statement of the
	// goroutine body with no earlier return that could bypass it.
	for _, d := range dones {
		if d.deferred {
			continue
		}
		if !d.topLevel {
			pass.Reportf(d.call.Pos(),
				"wg.Done on %s is nested under a branch and not reachable on all paths; use `defer wg.Done()` at the top of the goroutine", d.key)
			continue
		}
		for _, r := range returns {
			if r.Pos() < d.call.Pos() {
				pass.Reportf(d.call.Pos(),
					"an early return can bypass wg.Done on %s; use `defer wg.Done()` at the top of the goroutine", d.key)
				break
			}
		}
	}
}

// wgCall reports whether call is a sync.WaitGroup method call, returning
// the method name and a stable textual key for the receiver (root
// variable plus selector path).
func wgCall(pass *Pass, call *ast.CallExpr) (method, key string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Add", "Done", "Wait":
	default:
		return "", "", false
	}
	if !receiverIsNamed(fn, "sync", "WaitGroup") {
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

// receiverIsNamed reports whether fn's receiver (pointer stripped) is the
// named type pkgPath.name.
func receiverIsNamed(fn *types.Func, pkgPath, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// declaredWithin reports whether the receiver variable of the WaitGroup
// call is declared inside fl — a goroutine-local barrier.
func declaredWithin(pass *Pass, call *ast.CallExpr, fl *ast.FuncLit) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, _ := rootVarPath(pass, sel.X)
	return base != nil && base.Pos() >= fl.Pos() && base.Pos() <= fl.End()
}

// checkNestedPoolRun applies B4: a Run call on a configured barrier pool
// whose function-literal argument itself calls Run on the same pool.
func checkNestedPoolRun(pass *Pass, call *ast.CallExpr) {
	base, path, ok := poolRunCall(pass, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		fl, okFl := arg.(*ast.FuncLit)
		if !okFl {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			inner, okInner := n.(*ast.CallExpr)
			if !okInner || inner == call {
				return true
			}
			ibase, ipath, okRun := poolRunCall(pass, inner)
			if okRun && ibase == base && ipath == path {
				pass.Reportf(inner.Pos(),
					"nested Run on the same pool %s deadlocks: the epoch barrier is not reentrant (the inner Run waits for workers parked in the outer epoch)",
					poolKey(base, path))
			}
			return true
		})
	}
}

// poolRunCall reports whether call is <pool>.Run(...) on a type listed in
// Config.BarrierPools, returning the receiver's root variable and path.
func poolRunCall(pass *Pass, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Run" {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", false
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	found := false
	for _, p := range pass.Cfg.BarrierPools {
		if p == qual {
			found = true
			break
		}
	}
	if !found {
		return nil, "", false
	}
	base, path := rootVarPath(pass, sel.X)
	if base == nil {
		return nil, "", false
	}
	return base, path, true
}

func poolKey(base *types.Var, path string) string {
	if path == "" {
		return base.Name()
	}
	return base.Name() + "." + path
}
