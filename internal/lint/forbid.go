package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// A callBan is one forbidden-call rule: the package-level functions of
// some standard-library packages that the code it covers must not
// reference, as a call or as a function value. Methods are never banned:
// rng.Float64 or t.After acts on a value the caller was handed, and only
// a package-level function reaches state nobody injected. nowcheck,
// globalrand and atomicmix are this one walk with three tables.
type callBan struct {
	// pkgs are the import paths whose package-level functions the rule
	// covers.
	pkgs []string
	// banned picks the forbidden ones among them by name.
	banned func(name string) bool
	// why completes the diagnostic "<pkg>.<Func> ...".
	why string
}

func (b callBan) run(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// The object, not the source text, is what matters: an
			// aliased import resolves to the same *types.Func.
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !slices.Contains(b.pkgs, fn.Pkg().Path()) {
				return true
			}
			if fn.Type().(*types.Signature).Recv() == nil && b.banned(fn.Name()) {
				pass.Reportf(sel.Pos(), "%s.%s %s", fn.Pkg().Path(), fn.Name(), b.why)
			}
			return true
		})
	}
}

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
	Run: func(pass *Pass) {
		if !pathIn(pass.Pkg.Path, nowAllowed) {
			nowBan.run(pass)
		}
	},
}

var nowBan = callBan{
	pkgs: []string{"time"},
	banned: func(name string) bool {
		return slices.Contains([]string{"Now", "Since", "Sleep", "Until", "After", "Tick"}, name)
	},
	why: "reads the host wall clock; simulated code must take time from internal/sim or internal/clock",
}

// GlobalRand bans draws from the shared, implicitly-seeded generators of
// math/rand and math/rand/v2 (rand.IntN, rand.Float64, ...). Experiments
// are byte-identical across runs and under the parallel runner only when
// every random number flows through an injected *rand.Rand built from a
// named seed (rand.New(rand.NewPCG(seed1, seed2))). A single global draw
// re-introduces cross-goroutine ordering dependence and breaks
// reproducibility of every figure downstream.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "no package-level math/rand(/v2) draws; randomness flows through injected seeded generators",
	Run:  randBan.run,
}

var randBan = callBan{
	pkgs: []string{"math/rand", "math/rand/v2"},
	// The constructors of explicit generators and sources are the
	// sanctioned entry points; every other package-level function draws
	// from the global generator.
	banned: func(name string) bool {
		return !slices.Contains([]string{"New", "NewPCG", "NewChaCha8", "NewSource", "NewZipf"}, name)
	},
	why: "draws from the shared global generator; inject a seeded *rand.Rand (rand.New(rand.NewPCG(...))) instead",
}

// AtomicMix keeps atomic and plain accesses of one word from mixing, by
// banning the only API that lets them: the function-style atomics
// (atomic.AddUint64(&x, 1), atomic.LoadInt64(&x), ...), whose operand is
// an ordinary variable that any other line may load or store plainly, a
// tear the race detector reports only if a test happens to schedule both
// sides. The typed atomics (atomic.Int64, atomic.Uint64,
// atomic.Pointer[T]) have no plain access to mix in, so the violation
// does not compile. The tree uses only those, and this rule keeps it so.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "no function-style sync/atomic calls; typed atomics cannot be mixed with plain accesses",
	Run:  atomicBan.run,
}

var atomicBan = callBan{
	pkgs:   []string{"sync/atomic"},
	banned: func(string) bool { return true },
	why:    "is a function-style atomic whose operand can still be loaded or stored plainly elsewhere; use a typed atomic (atomic.Int64, atomic.Uint64, atomic.Pointer[T])",
}
