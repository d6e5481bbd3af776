package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardedBy is the static complement of the race detector: it infers, per
// struct field, which mutex of the same struct guards it — by majority
// vote over the package's lock-held accesses — and then flags every
// access of that field reachable without the inferred mutex. The race
// detector only sees schedules it happens to execute; this analyzer sees
// every access site, so a lock-free read of a mostly-guarded field is
// caught even if no test ever races it.
//
// Inference is deliberately conservative, tuned to avoid false positives
// rather than to catch everything:
//
//   - A field is considered guarded by mutex m only when at least
//     guardedByMinLocked accesses hold m AND those are a strict majority
//     of all recorded accesses. One locked access proves nothing.
//   - Accesses through a variable declared inside the same function body
//     are skipped: a struct under construction (New functions, test
//     setup) is not yet shared, so its initialization is lock-free by
//     design.
//   - Lock-state tracking is optimistic across branches: a field access
//     after a conditional that MAY have locked is treated as locked, and
//     an unlock inside a branch that terminates (early return) does not
//     release the lock for the code after the branch. False negatives
//     are acceptable; false alarms are not.
//   - Function literals are assumed to run synchronously (they inherit
//     the current lock set) except goroutine bodies (`go func(){...}`),
//     which start with no locks held.
//
// Known blind spots (see DESIGN.md §10): cross-package accesses, mutexes
// reached through nested selectors (s.inner.mu), package-level variables
// guarded by package-level mutexes, and TryLock.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "struct fields mostly accessed under a mutex must always be accessed under it",
	Run:  runGuardedBy,
}

// guardedByMinLocked is the minimum number of lock-held accesses before a
// guard relationship is inferred at all.
const guardedByMinLocked = 2

// gbLockKey identifies one mutex instance within a function: the root
// variable it is reached through and the selector path below it ("mu" for
// c.mu, "" for a bare mutex variable).
type gbLockKey struct {
	base *types.Var
	path string
}

// gbFieldKey identifies a struct field across the package: the defining
// named type and the field's name.
type gbFieldKey struct {
	typ   *types.TypeName
	field string
}

// gbAccess is one recorded field access.
type gbAccess struct {
	key  gbFieldKey
	pos  token.Pos
	held map[string]bool // mutex field names of the same struct held here
}

// gbState is the per-function walk state.
type gbState struct {
	pass *Pass
	body *ast.BlockStmt // current FuncDecl body, for the local-base skip
	recs *[]gbAccess
}

func runGuardedBy(pass *Pass) {
	var recs []gbAccess
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := &gbState{pass: pass, body: fd.Body, recs: &recs}
			st.walkStmts(fd.Body.List, map[gbLockKey]bool{})
		}
	}

	// Majority inference per field.
	type tally struct {
		total    int
		byMutex  map[string]int
		accesses []int // indices into recs
	}
	tallies := make(map[gbFieldKey]*tally)
	for i, a := range recs {
		tl := tallies[a.key]
		if tl == nil {
			tl = &tally{byMutex: make(map[string]int)}
			tallies[a.key] = tl
		}
		tl.total++
		tl.accesses = append(tl.accesses, i)
		for m := range a.held {
			tl.byMutex[m]++
		}
	}
	for key, tl := range tallies {
		guard, guardN := "", 0
		// Deterministic winner on ties: smallest mutex name.
		names := make([]string, 0, len(tl.byMutex))
		for m := range tl.byMutex {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			if tl.byMutex[m] > guardN {
				guard, guardN = m, tl.byMutex[m]
			}
		}
		if guardN < guardedByMinLocked || guardN*2 <= tl.total {
			continue // no majority: no inferred guard
		}
		for _, i := range tl.accesses {
			a := recs[i]
			if !a.held[guard] {
				pass.Reportf(a.pos,
					"%s.%s is guarded by %s.%s (%d of %d accesses hold it); this access does not hold the lock",
					key.typ.Name(), key.field, key.typ.Name(), guard, guardN, tl.total)
			}
		}
	}
}

// walkStmts processes a statement list, threading the held-lock set
// through it, and returns the set after the list.
func (st *gbState) walkStmts(stmts []ast.Stmt, held map[gbLockKey]bool) map[gbLockKey]bool {
	for _, s := range stmts {
		held = st.walkStmt(s, held)
	}
	return held
}

func copyHeld(held map[gbLockKey]bool) map[gbLockKey]bool {
	out := make(map[gbLockKey]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// unionHeld merges branch outcomes optimistically: held on any path
// counts as held (we flag only definitely-unlocked accesses).
func unionHeld(a, b map[gbLockKey]bool) map[gbLockKey]bool {
	out := copyHeld(a)
	for k, v := range b {
		if v {
			out[k] = true
		}
	}
	return out
}

// stmtTerminates reports whether a statement list definitely transfers
// control out of the enclosing block at its end.
func stmtsTerminate(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
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

func (st *gbState) walkStmt(s ast.Stmt, held map[gbLockKey]bool) map[gbLockKey]bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := st.lockCall(s.X); ok {
			switch op {
			case "Lock", "RLock":
				held = copyHeld(held)
				held[key] = true
			case "Unlock", "RUnlock":
				held = copyHeld(held)
				delete(held, key)
			}
			return held
		}
		st.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock releases at return, not here: the lock stays
		// held for the remainder of the walk, which is exactly right.
		if _, _, ok := st.lockCall(s.Call); !ok {
			st.scanExpr(s.Call, held)
		}
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.ReturnStmt, *ast.SendStmt,
		*ast.DeclStmt, *ast.GoStmt:
		if g, ok := s.(*ast.GoStmt); ok {
			// The goroutine body runs later, with no inherited locks.
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				st.walkStmts(fl.Body.List, map[gbLockKey]bool{})
				for _, arg := range g.Call.Args {
					st.scanExpr(arg, held)
				}
				return held
			}
		}
		st.scanExpr(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		st.scanExpr(s.Cond, held)
		thenHeld := st.walkStmts(s.Body.List, copyHeld(held))
		after := held
		if !stmtsTerminate(s.Body.List) {
			after = unionHeld(after, thenHeld)
		}
		if s.Else != nil {
			elseHeld := st.walkStmt(s.Else, copyHeld(held))
			terminated := false
			if eb, ok := s.Else.(*ast.BlockStmt); ok {
				terminated = stmtsTerminate(eb.List)
			}
			if !terminated {
				after = unionHeld(after, elseHeld)
			}
		}
		return after
	case *ast.ForStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			st.scanExpr(s.Cond, held)
		}
		bodyHeld := st.walkStmts(s.Body.List, copyHeld(held))
		if s.Post != nil {
			st.walkStmt(s.Post, bodyHeld)
		}
		return unionHeld(held, bodyHeld)
	case *ast.RangeStmt:
		st.scanExpr(s.X, held)
		bodyHeld := st.walkStmts(s.Body.List, copyHeld(held))
		return unionHeld(held, bodyHeld)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			st.scanExpr(s.Tag, held)
		}
		return st.walkCases(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = st.walkStmt(s.Init, held)
		}
		st.scanExpr(s.Assign, held)
		return st.walkCases(s.Body, held)
	case *ast.SelectStmt:
		return st.walkCases(s.Body, held)
	case *ast.BlockStmt:
		return st.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return st.walkStmt(s.Stmt, held)
	}
	return held
}

// walkCases handles switch/select bodies: each clause starts from the
// entry state; the after-state is the optimistic union of the entry and
// every non-terminating clause.
func (st *gbState) walkCases(body *ast.BlockStmt, held map[gbLockKey]bool) map[gbLockKey]bool {
	after := held
	for _, cs := range body.List {
		var list []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st.scanExpr(e, held)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				st.walkStmt(c.Comm, copyHeld(held))
			}
			list = c.Body
		}
		exit := st.walkStmts(list, copyHeld(held))
		if !stmtsTerminate(list) {
			after = unionHeld(after, exit)
		}
	}
	return after
}

// lockCall recognizes base.mu.Lock()/Unlock()/RLock()/RUnlock() (or a bare
// mutex variable's mu.Lock()) and returns the mutex key and method name.
func (st *gbState) lockCall(e ast.Expr) (gbLockKey, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return gbLockKey{}, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return gbLockKey{}, "", false
	}
	fn, ok := st.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return gbLockKey{}, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return gbLockKey{}, "", false
	}
	base, path := rootVarPath(st.pass, sel.X)
	if base == nil {
		return gbLockKey{}, "", false
	}
	return gbLockKey{base: base, path: path}, fn.Name(), true
}

// rootVarPath resolves an expression like c.mu (or mu) to its root
// variable and the selector path below it. Non-variable roots (function
// results, map indexes) return nil.
func rootVarPath(pass *Pass, e ast.Expr) (*types.Var, string) {
	switch x := e.(type) {
	case *ast.Ident:
		v, _ := pass.Pkg.Info.Uses[x].(*types.Var)
		return v, ""
	case *ast.SelectorExpr:
		base, path := rootVarPath(pass, x.X)
		if base == nil {
			return nil, ""
		}
		if path == "" {
			return base, x.Sel.Name
		}
		return base, path + "." + x.Sel.Name
	case *ast.ParenExpr:
		return rootVarPath(pass, x.X)
	}
	return nil, ""
}

// scanExpr records struct-field accesses inside an expression or simple
// statement with the current held set. Nested function literals inherit
// the current lock set (synchronous-execution assumption); goroutine
// bodies are handled by walkStmt and never reach here.
func (st *gbState) scanExpr(n ast.Node, held map[gbLockKey]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			st.walkStmts(fl.Body.List, copyHeld(held))
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		st.recordAccess(sel, held)
		return true
	})
}

// recordAccess records base.field accesses where base is a plain variable
// of a named struct type and field is a data field of that struct.
func (st *gbState) recordAccess(sel *ast.SelectorExpr, held map[gbLockKey]bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	base, ok := st.pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	fieldObj, ok := st.pass.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() {
		return
	}
	// The struct's named type.
	t := base.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	// Only fields defined in this package are inferable (we see all
	// their accesses).
	if fieldObj.Pkg() != st.pass.Pkg.Types {
		return
	}
	if isSyncType(fieldObj.Type()) {
		return // mutexes, wait groups, atomics guard themselves
	}
	// A variable declared inside the current function body is still
	// under construction: lock-free access is by design.
	if st.body != nil && base.Pos() >= st.body.Pos() && base.Pos() <= st.body.End() {
		return
	}
	heldNames := make(map[string]bool)
	for key, v := range held {
		if v && key.base == base && !strings.Contains(key.path, ".") && key.path != "" {
			heldNames[key.path] = true
		}
	}
	*st.recs = append(*st.recs, gbAccess{
		key:  gbFieldKey{typ: named.Obj(), field: fieldObj.Name()},
		pos:  sel.Pos(),
		held: heldNames,
	})
}

// isSyncType reports whether t is a synchronization primitive from sync
// or sync/atomic (those fields are their own guard).
func isSyncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}
