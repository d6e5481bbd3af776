package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// FloatEq bans == and != on floating-point operands outside an explicit
// allowlist of approved comparison helpers. Interval endpoints are float64
// seconds; after drift scaling and midpoint arithmetic two "equal" edges
// rarely share a bit pattern, so exact comparison silently corrupts the
// consistency predicate |Ci - Cj| <= Ei + Ej and the Figure 4 group
// decomposition. Code that genuinely needs exact equality (sort
// tie-breaks, NaN tests) lives in the allowlisted helpers or carries a
// justified //lint:ignore.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= on floating-point operands outside approved comparison helpers",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if slices.Contains(floatEqAllowed, funcQualName(pass.Pkg.Path, d)) {
					continue
				}
				checkFloatEq(pass, d.Body)
			case *ast.GenDecl:
				// Package-level initializers are never allowlisted.
				checkFloatEq(pass, d)
			}
		}
	}
}

func checkFloatEq(pass *Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xt := pass.Pkg.Info.Types[be.X]
		yt := pass.Pkg.Info.Types[be.Y]
		if !isFloat(xt.Type) && !isFloat(yt.Type) {
			return true
		}
		// Two constants compare exactly at compile time; the hazard is
		// computed values.
		if xt.Value != nil && yt.Value != nil {
			return true
		}
		pass.Reportf(be.OpPos,
			"%s on floating-point operands; use an approved epsilon/exact helper (interval endpoints rarely share bit patterns)",
			be.Op)
		return true
	})
}

// isFloat reports whether t's core type is a floating-point scalar, or a
// struct or array that == compares one inside: comparing two such values
// compares their floats exactly.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Array:
		return isFloat(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			if isFloat(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}
