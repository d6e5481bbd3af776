// Package lint is disttime's in-tree static-analysis framework. It is
// built on the standard library only (go/ast, go/parser, go/token,
// go/types) — no golang.org/x/tools — honoring the repository's
// no-dependency rule.
//
// The framework exists because the paper's guarantees (a returned interval
// [C-E, C+E] contains correct time; the MM/IM update rules preserve it)
// only reproduce when the simulator is bit-deterministic and the pooled
// hot paths stay pool-safe. Tests, seeded fingerprints and the chaos
// monitor hold those guarantees first; the analyzers here are the second
// line, and each of the seven is kept because a violation planted in real
// code was caught by it and by nothing else (DESIGN.md §10 has the plant
// table, and what the audit deleted):
//
//	nowcheck   — wall-clock reads (time.Now/Since/Sleep) are confined to
//	             the real-network packages; simulated code draws time from
//	             internal/sim and internal/clock (paper §1.1: a clock
//	             reading is a <C, E> pair, not the OS clock).
//	globalrand — no package-level math/rand(/v2) draws; randomness flows
//	             through injected, seeded generators so experiments are
//	             byte-identical at any worker count.
//	atomicmix  — no function-style sync/atomic calls: their operand is an
//	             ordinary word a plain access can tear, and the typed
//	             atomics the tree uses cannot be mixed at all.
//	floateq    — no ==/!= on floating-point operands outside approved
//	             helpers; interval endpoints are float64 seconds and exact
//	             comparison corrupts the consistency predicate (Fig. 4).
//	mapiter    — no ranging over maps where iteration order can reach
//	             experiment/trace output or caller-visible slices.
//	poolput    — no use of a value after it was returned to its pool and
//	             no storing pooled values into long-lived fields.
//	guardedby  — a struct field accessed under a mutex by the majority of
//	             its accesses must hold that mutex at every access; the
//	             static complement to -race, covering schedules the race
//	             detector never executes.
//
// The first three are one selector walk over three tables (forbid.go).
// Zero allocation on the hot paths is not a lint matter: a
// testing.AllocsPerRun test beside each path holds it at zero.
//
// Diagnostics can be suppressed with a justified directive on the same
// line or the line above:
//
//	//lint:ignore <check> <reason>
//
// A directive without a reason — or with a token reason shorter than
// three words — is itself a diagnostic: suppressions must explain
// themselves to the next reader.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to a check.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check name used in output and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NowCheck, GlobalRand, AtomicMix, FloatEq, MapIter,
		PoolPut, GuardedBy}
}

// The three tables below scope the analyzers to the repository's layout.
// They are the enforcement policy, not configuration: the driver and the
// fixture tests read the same ones, so the fixtures' stand-ins for the
// approved helpers are listed beside the real entries.

// nowAllowed lists import-path prefixes where wall-clock reads are
// legitimate (the real-network packages and the binaries).
var nowAllowed = []string{
	// The real-network time source: wall clock is the subject.
	"disttime/internal/udptime",
	// Binaries and runnable examples: pacing, timeouts, and
	// wall-clock reporting at the edge are legitimate.
	"disttime/cmd",
	"disttime/examples",
}

// floatEqAllowed lists functions permitted to compare floats with
// ==/!=, as "pkgpath.Func" or "pkgpath.Type.Method" (receiver pointer
// stripped). These are the approved comparison helpers.
var floatEqAllowed = []string{
	// Sort tie-break on identical endpoint bit patterns; exact
	// comparison is the point (equal positions order by edge
	// kind so closed intervals touching at a point intersect).
	"disttime/internal/interval.edgeSlice.Less",
	// Approved exact-equality helper for interval endpoints.
	"disttime/internal/interval.SameEdge",
	// Fixtures exercising the analyzer itself.
	"disttime/internal/lint/testdata/src/floateq.approvedHelper",
	"disttime/internal/lint/testdata/src/floateq.edge.Less",
}

// mapIterScope lists import-path prefixes where mapiter applies (the
// packages that produce ordered experiment/trace output).
var mapIterScope = []string{
	// Packages whose output must be byte-identical run-to-run.
	"disttime/internal/experiments",
	// Chaos verdicts, reproducer lines, and shrink results are
	// determinism contracts (equal campaigns => equal bytes).
	"disttime/internal/chaos",
	// Metrics snapshots and span logs are byte-deterministic
	// under fixed seeds (sorted enumeration is the mechanism).
	"disttime/internal/obs",
	// Roster digests, gossip payloads, and detector verdicts feed
	// deterministic timelines; sorted iteration is the contract.
	"disttime/internal/member",
	// The event kernel, its one-node face, the packages that file its
	// events (the simulated service and its network) and its
	// planet-scale workload are determinism contracts; any map
	// iteration feeding event order or fingerprints is a bug.
	"disttime/internal/sim",
	"disttime/internal/service",
	"disttime/internal/simnet",
	"disttime/internal/scale",
	// Hybrid logical clocks and the commit-wait workload feed
	// deterministic timelines (cmd/timesim pins them byte for byte).
	"disttime/internal/hlc",
	"disttime/internal/txn",
	"disttime/cmd",
	// Fixtures exercising the analyzer itself.
	"disttime/internal/lint/testdata",
}

// pathIn reports whether pkgPath equals prefix or sits beneath it.
func pathIn(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// RunPackage runs the given analyzers over one package, applies
// //lint:ignore suppressions, and returns the surviving diagnostics in
// position order.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	ignores, malformed := collectIgnores(pkg)
	diags = append(diags, malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !ignores.suppresses(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].File != kept[j].File {
			return kept[i].File < kept[j].File
		}
		if kept[i].Line != kept[j].Line {
			return kept[i].Line < kept[j].Line
		}
		if kept[i].Col != kept[j].Col {
			return kept[i].Col < kept[j].Col
		}
		return kept[i].Check < kept[j].Check
	})
	return kept
}

// ignoreSet maps file -> line -> set of suppressed check names.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) suppresses(d Diagnostic) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if checks := lines[line]; checks != nil && (checks[d.Check] || checks["*"]) {
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores gathers //lint:ignore directives from the package's
// comments. A directive suppresses the named check on its own line and the
// line below. Directives missing a check name or a reason are reported as
// diagnostics of check "lint", as are directives whose reason is shorter
// than three words — a suppression must carry a written justification,
// not a token.
func collectIgnores(pkg *Package) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				position := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Check:   "lint",
						File:    position.Filename,
						Line:    position.Line,
						Col:     position.Column,
						Message: "malformed //lint:ignore directive: want \"//lint:ignore <check> <reason>\"",
					})
					continue
				}
				if len(fields) < 4 {
					malformed = append(malformed, Diagnostic{
						Check:   "lint",
						File:    position.Filename,
						Line:    position.Line,
						Col:     position.Column,
						Message: "suppression reason too short: //lint:ignore must carry a written justification (at least three words)",
					})
					continue
				}
				lines := set[position.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					set[position.Filename] = lines
				}
				checks := lines[position.Line]
				if checks == nil {
					checks = make(map[string]bool)
					lines[position.Line] = checks
				}
				for _, name := range strings.Split(fields[0], ",") {
					checks[name] = true
				}
			}
		}
	}
	return set, malformed
}

// funcQualName renders the allowlist key for a function declaration:
// "pkgpath.Func" or "pkgpath.Type.Method" with any receiver pointer
// stripped.
func funcQualName(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (Type[T]) reduce to their base identifier.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return pkgPath + "." + id.Name + "." + fd.Name.Name
	}
	return pkgPath + "." + fd.Name.Name
}
