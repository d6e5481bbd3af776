package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc enforces the repository's zero-allocation annotations. A
// function marked
//
//	//lint:noalloc
//
// declares that its steady-state execution performs no heap allocation —
// the contract behind the interval Sweeper, the sharded kernel's pending
// set, the obs metric handles, and the wire codec. The analyzer rejects
// allocation-causing constructs inside annotated functions:
//
//   - make and new
//   - append to a freshly allocated slice (nil, a literal, or make —
//     growth on every call; append that extends a retained buffer is
//     amortized-zero and allowed)
//   - map and slice composite literals, and &T{} literals (heap escape)
//   - function literals and method values (closure allocation)
//   - go statements (a goroutine is an allocation)
//   - interface boxing: passing or converting a non-pointer-shaped
//     concrete value to an interface type
//   - string concatenation with + and string<->[]byte/[]rune conversions
//   - any call into package fmt
//
// Error paths are exempt: a construct inside a block whose final
// statement returns a non-nil error (or panics) is cold by definition —
// zero-allocation decoding that allocates only to describe malformed
// input is the intended shape. The static check is half of the evidence;
// the measured half is a testing.AllocsPerRun test beside the annotated
// code, which `go test ./...` runs and which fails when a warm call
// allocates. Known blind spots are listed in DESIGN.md §15
// (interprocedural calls, deferred calls in loops, append growth against
// a retained buffer before its high-water mark).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //lint:noalloc must contain no allocation-causing constructs",
	Run:  runNoAlloc,
}

const noallocPrefix = "//lint:noalloc"

// noallocDirectiveLines records the source lines carrying a
// //lint:noalloc directive.
func noallocDirectiveLines(pkg *Package, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, noallocPrefix) {
				lines[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// noallocAnnotated reports whether fd carries a //lint:noalloc directive,
// in its doc comment or on the line above the declaration.
func noallocAnnotated(pkg *Package, fd *ast.FuncDecl, directives map[int]bool) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, noallocPrefix) {
				return true
			}
		}
	}
	return directives[pkg.Fset.Position(fd.Pos()).Line-1]
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		directives := noallocDirectiveLines(pass.Pkg, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !noallocAnnotated(pass.Pkg, fd, directives) {
				continue
			}
			checkNoAlloc(pass, fd)
		}
	}
}

func checkNoAlloc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	returnsError := funcReturnsError(pass, fd)

	// callFuns collects every expression in function position, so method
	// values (a selector used NOT as a call target) can be told apart
	// from ordinary method calls.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[call.Fun] = true
		}
		return true
	})

	report := func(n ast.Node, format string, args ...any) {
		if onColdPath(pass, fd, n, returnsError) {
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n, "go statement in //lint:noalloc function %s: launching a goroutine allocates", fd.Name.Name)
		case *ast.FuncLit:
			report(n, "function literal in //lint:noalloc function %s: closures allocate", fd.Name.Name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.Types[n.X].Type) {
				// Constant folding makes whole-constant concatenation free.
				if tv, ok := info.Types[ast.Expr(n)]; !ok || tv.Value == nil {
					report(n, "string concatenation in //lint:noalloc function %s allocates", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				report(n, "map literal in //lint:noalloc function %s allocates", fd.Name.Name)
			case *types.Slice:
				report(n, "slice literal in //lint:noalloc function %s allocates", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n, "&composite literal in //lint:noalloc function %s escapes to the heap", fd.Name.Name)
				}
			}
		case *ast.SelectorExpr:
			if !callFuns[n] {
				if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					report(n, "method value %s in //lint:noalloc function %s allocates a closure",
						exprString(n), fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, fd, n, report)
		}
		return true
	})
}

// checkNoAllocCall applies the call-shaped rules: builtins, conversions,
// the fmt denylist, and interface boxing of arguments.
func checkNoAllocCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(ast.Node, string, ...any)) {
	info := pass.Pkg.Info

	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call, "make in //lint:noalloc function %s allocates", fd.Name.Name)
			case "new":
				report(call, "new in //lint:noalloc function %s allocates", fd.Name.Name)
			case "append":
				if len(call.Args) > 0 && freshSlice(pass, call.Args[0]) {
					report(call, "append to a fresh slice in //lint:noalloc function %s allocates every call (append that extends a retained buffer is amortized-free)", fd.Name.Name)
				}
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type
		argT := info.Types[call.Args[0]]
		if types.IsInterface(target.Underlying()) {
			if !argT.IsNil() && argT.Type != nil &&
				!types.IsInterface(argT.Type.Underlying()) && !pointerShaped(argT.Type) {
				report(call, "conversion to interface in //lint:noalloc function %s boxes %s on the heap",
					fd.Name.Name, types.TypeString(argT.Type, nil))
			}
			return
		}
		if stringSliceConversion(target, argT.Type) {
			report(call, "string<->byte-slice conversion in //lint:noalloc function %s copies and allocates", fd.Name.Name)
		}
		return
	}

	// fmt denylist.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call, "fmt.%s in //lint:noalloc function %s allocates", fn.Name(), fd.Name.Name)
			// Fall through: boxing of the args would double-report.
			return
		}
	}

	// Interface boxing at ordinary call sites.
	sigTV, ok := info.Types[call.Fun]
	if !ok || sigTV.Type == nil {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				paramT = s.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT.Underlying()) {
			continue
		}
		argT := info.Types[arg]
		if argT.IsNil() || argT.Type == nil {
			continue
		}
		if types.IsInterface(argT.Type.Underlying()) || pointerShaped(argT.Type) {
			continue
		}
		report(arg, "passing %s to an interface parameter in //lint:noalloc function %s boxes it on the heap",
			types.TypeString(argT.Type, nil), fd.Name.Name)
	}
}

// freshSlice reports whether e denotes a slice allocated at this very
// expression: nil, a composite literal, or a make call. Appending to one
// of those allocates on every execution.
func freshSlice(pass *Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		return pass.Pkg.Info.Types[e].IsNil()
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return true
			}
		}
	case *ast.ParenExpr:
		return freshSlice(pass, x.X)
	}
	return false
}

// pointerShaped reports whether values of t fit in an interface's data
// word without a heap copy: pointers, channels, maps, funcs, and
// unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringSliceConversion reports whether a conversion between target and
// arg crosses the string/[]byte (or []rune) boundary, which copies.
func stringSliceConversion(target, arg types.Type) bool {
	if arg == nil {
		return false
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 ||
			b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	return (isStringType(target) && isByteOrRuneSlice(arg)) ||
		(isByteOrRuneSlice(target) && isStringType(arg))
}

// funcReturnsError reports whether fd's last result is an error.
func funcReturnsError(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	last := fd.Type.Results.List[len(fd.Type.Results.List)-1]
	t := pass.Pkg.Info.Types[last.Type].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// onColdPath reports whether n sits inside a nested block whose final
// statement returns a non-nil error or panics — an error exit, exempt
// from the zero-allocation contract because it cannot be part of the
// steady state. The function's own body does not count: only branches.
func onColdPath(pass *Pass, fd *ast.FuncDecl, n ast.Node, returnsError bool) bool {
	blocks := enclosingBlocks(fd.Body, n.Pos())
	for _, b := range blocks {
		if b == fd.Body {
			continue
		}
		if len(b.List) == 0 {
			continue
		}
		switch last := b.List[len(b.List)-1].(type) {
		case *ast.ReturnStmt:
			if !returnsError || len(last.Results) == 0 {
				continue
			}
			final := last.Results[len(last.Results)-1]
			if id, ok := final.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}
