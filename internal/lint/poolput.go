package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolPut guards the zero-allocation hot paths: once a value has been
// returned to its pool — via (*sync.Pool).Put directly, or via a
// same-package wrapper that Puts a parameter or pushes it onto a free
// list — the caller must not read it, return it, Put it again, or have
// stored it into a long-lived field. The interval Sweeper pool and the
// service's reply and gossip free lists all recycle structs whose
// contents are overwritten by the next Get; a
// use-after-put reads another round's data and corrupts results silently
// (no crash, just wrong intervals).
//
// The analysis is intraprocedural and forward-flow: after a put of x,
// later references to x are flagged until x is reassigned. A put inside a
// block that terminates (return/branch/panic) does not taint code after
// the block.
var PoolPut = &Analyzer{
	Name: "poolput",
	Doc:  "no use of a value after returning it to a pool; no storing pooled values into fields",
	Run:  runPoolPut,
}

// putterPrefixes are function-name prefixes that mark a free-list release
// helper. A same-package function with such a name that appends a
// parameter to a slice (or Puts it) is treated as consuming that
// parameter.
var putterPrefixes = []string{"put", "free", "release", "recycle", "giveback", "drop"}

func runPoolPut(pass *Pass) {
	putters := findPutters(pass)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFuncPuts(pass, fd, putters)
		}
	}
}

// isPoolPutCall reports whether call is (*sync.Pool).Put.
func isPoolPutCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Put" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// hasPutterName reports whether a function name announces a release
// helper (put/free/release/...).
func hasPutterName(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range putterPrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// findPutters scans the package for release helpers: functions that pass
// a parameter to sync.Pool.Put, or whose name marks them as a release
// helper and whose body appends a parameter to a free-list slice. It maps
// each such function to the indices of its consumed parameters.
func findPutters(pass *Pass) map[*types.Func][]int {
	putters := make(map[*types.Func][]int)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Params == nil {
				continue
			}
			fnObj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			params := paramObjects(pass, fd)
			if len(params) == 0 {
				continue
			}
			var consumed []int
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPoolPutCall(pass.Pkg.Info, call) && len(call.Args) == 1 {
					if i := paramIndex(pass, params, call.Args[0]); i >= 0 {
						consumed = append(consumed, i)
					}
					return true
				}
				// Free-list push: append(..., param) inside a
				// release-named helper.
				if id, ok := call.Fun.(*ast.Ident); ok && hasPutterName(fd.Name.Name) {
					if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for _, arg := range call.Args[1:] {
							if i := paramIndex(pass, params, arg); i >= 0 {
								consumed = append(consumed, i)
							}
						}
					}
				}
				return true
			})
			if len(consumed) > 0 {
				putters[fnObj] = consumed
			}
		}
	}
	return putters
}

func paramObjects(pass *Pass, fd *ast.FuncDecl) []*types.Var {
	var params []*types.Var
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok {
				params = append(params, v)
			}
		}
	}
	return params
}

func paramIndex(pass *Pass, params []*types.Var, arg ast.Expr) int {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return -1
	}
	obj := pass.Pkg.Info.Uses[id]
	for i, p := range params {
		if obj == p {
			return i
		}
	}
	return -1
}

// putEvent is one point where a variable was returned to a pool.
type putEvent struct {
	obj  *types.Var
	call *ast.CallExpr
}

// analyzeFuncPuts runs the forward-flow use-after-put and field-store
// checks over one function body.
func analyzeFuncPuts(pass *Pass, fd *ast.FuncDecl, putters map[*types.Func][]int) {
	var puts []putEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPoolPutCall(pass.Pkg.Info, call) && len(call.Args) == 1 {
			if v := varOf(pass, call.Args[0]); v != nil {
				puts = append(puts, putEvent{obj: v, call: call})
			}
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil {
			if idxs, ok := putters[fn]; ok {
				for _, i := range idxs {
					if i < len(call.Args) {
						if v := varOf(pass, call.Args[i]); v != nil {
							puts = append(puts, putEvent{obj: v, call: call})
						}
					}
				}
			}
		}
		return true
	})
	if len(puts) == 0 {
		return
	}

	putObjs := make(map[*types.Var]bool, len(puts))
	for _, p := range puts {
		putObjs[p.obj] = true
	}

	// One walk collecting, per pooled object: plain uses, reassignment
	// positions, and field stores.
	type objFlow struct {
		uses      []*ast.Ident
		reassigns []token.Pos
	}
	flows := make(map[*types.Var]*objFlow)
	flow := func(v *types.Var) *objFlow {
		fl := flows[v]
		if fl == nil {
			fl = &objFlow{}
			flows[v] = fl
		}
		return fl
	}
	lhsIdents := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && putObjs[v] {
					lhsIdents[id] = true
					flow(v).reassigns = append(flow(v).reassigns, as.Pos())
				}
			}
			// Field store of a pooled value: lhs is a selector and some
			// rhs is the pooled ident.
			if _, ok := lhs.(*ast.SelectorExpr); ok {
				for _, rhs := range as.Rhs {
					if v := varOf(pass, rhs); v != nil && putObjs[v] {
						pass.Reportf(as.Pos(),
							"pooled value %s stored into field %s; a recycled struct must not outlive its pool round",
							v.Name(), exprString(lhs))
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || lhsIdents[id] {
			return true
		}
		if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && putObjs[v] {
			flow(v).uses = append(flow(v).uses, id)
		}
		return true
	})

	for _, put := range puts {
		fl := flows[put.obj]
		if fl == nil {
			continue
		}
		for _, use := range fl.uses {
			if use.Pos() <= put.call.End() {
				continue // before or part of the put itself
			}
			if reassignedBetween(fl.reassigns, put.call.End(), use.Pos()) {
				continue
			}
			if !reachableAfter(fd.Body, put.call, use.Pos()) {
				continue
			}
			pass.Reportf(use.Pos(),
				"%s used after being returned to its pool at line %d; the pool may already have recycled it",
				put.obj.Name(), pass.Pkg.Fset.Position(put.call.Pos()).Line)
		}
	}
}

func varOf(pass *Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.Pkg.Info.Uses[id].(*types.Var)
	return v
}

// calleeFunc resolves a call's static callee, if it is a plain function
// or method of this package.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func reassignedBetween(reassigns []token.Pos, from, to token.Pos) bool {
	for _, r := range reassigns {
		if r > from && r < to {
			return true
		}
	}
	return false
}

// reachableAfter reports whether control can flow from the put call to a
// use at usePos, approximated by block structure: a use positionally after
// the put is unreachable if it lies outside an enclosing block of the put
// that terminates (return / branch / panic).
func reachableAfter(body *ast.BlockStmt, put *ast.CallExpr, usePos token.Pos) bool {
	blocks := enclosingBlocks(body, put.Pos())
	// Innermost first.
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if usePos >= b.Pos() && usePos <= b.End() {
			return true // same block (or nested): forward flow reaches it
		}
		if blockTerminates(b) {
			return false // control cannot fall out of this block
		}
	}
	return true
}

// enclosingBlocks returns the chain of blocks containing pos, outermost
// first.
func enclosingBlocks(body *ast.BlockStmt, pos token.Pos) []*ast.BlockStmt {
	var blocks []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos > n.End() {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			blocks = append(blocks, b)
		}
		return true
	})
	return blocks
}

// blockTerminates reports whether a block's final statement definitely
// transfers control (return, branch, or panic).
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
