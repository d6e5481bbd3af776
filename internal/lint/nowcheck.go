package lint

import (
	"go/ast"
	"go/types"
)

// NowCheck enforces the simulated-path time discipline: outside the
// real-network package (internal/udptime) and the binaries
// (cmd/, examples/), code must not read the wall clock. Paper §1.1 models
// a clock reading as the pair <C, E>; the reproduction's simulated path
// draws C from internal/sim's virtual timeline and internal/clock's drift
// models, so a stray time.Now silently re-couples experiments to the host
// clock and destroys bit-determinism.
var NowCheck = &Analyzer{
	Name: "nowcheck",
	Doc:  "wall-clock reads (time.Now/Since/Sleep) are confined to real-network packages and binaries",
	Run:  runNowCheck,
}

// bannedTimeFuncs are the package time functions that read or depend on
// the host wall clock. Referencing one (call or function value) outside
// the allowlist is a finding.
var bannedTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
	"Until": true,
	"After": true,
	"Tick":  true,
}

func runNowCheck(pass *Pass) {
	if pathIn(pass.Pkg.Path, pass.Cfg.NowAllowed) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if bannedTimeFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the host wall clock; simulated code must take time from internal/sim or internal/clock",
					fn.Name())
			}
			return true
		})
	}
}
