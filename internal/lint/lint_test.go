package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared by every fixture test, so the standard library
// a fixture imports is type-checked from source once per test binary, not
// once per fixture.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return NewLoader(repoRoot, "disttime"), nil
})

// loadFixture type-checks one testdata fixture package under its real
// import path.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(loader.ModuleDir, "internal", "lint", "testdata", "src", name)
	pkg, err := loader.LoadDir(dir, "disttime/internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe extracts the quoted regexps of a "// want" comment; both
// double-quoted and backtick-quoted forms are accepted.
var wantRe = regexp.MustCompile("\"[^\"]*\"|`[^`]*`")

// collectWants gathers expected-diagnostic regexps per file and line from
// the fixture's trailing comments.
func collectWants(t *testing.T, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]map[int][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(c.Text[idx+len("// want "):], -1) {
					pat := q[1 : len(q)-1]
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					byLine := wants[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*regexp.Regexp)
						wants[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], re)
				}
			}
		}
	}
	return wants
}

// runFixture checks an analyzer's diagnostics against the fixture's
// // want comments, in both directions: every diagnostic must be
// expected, and every expectation must fire.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags := RunPackage(pkg, analyzers)
	wants := collectWants(t, pkg)

	matched := make(map[string]map[int][]bool)
	for file, byLine := range wants {
		matched[file] = make(map[int][]bool)
		for line, res := range byLine {
			matched[file][line] = make([]bool, len(res))
		}
	}

	for _, d := range diags {
		res := wants[d.File][d.Line]
		found := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched[d.File][d.Line][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s: %s",
				filepath.Base(d.File), d.Line, d.Col, d.Check, d.Message)
		}
	}
	for file, byLine := range wants {
		for line, res := range byLine {
			for i, re := range res {
				if !matched[file][line][i] {
					t.Errorf("%s:%d: expected diagnostic matching %q did not fire",
						filepath.Base(file), line, re.String())
				}
			}
		}
	}
}

func TestNowCheck(t *testing.T)   { runFixture(t, "nowcheck", []*Analyzer{NowCheck}) }
func TestGlobalRand(t *testing.T) { runFixture(t, "globalrand", []*Analyzer{GlobalRand}) }
func TestFloatEq(t *testing.T)    { runFixture(t, "floateq", []*Analyzer{FloatEq}) }
func TestMapIter(t *testing.T)    { runFixture(t, "mapiter", []*Analyzer{MapIter}) }
func TestPoolPut(t *testing.T)    { runFixture(t, "poolput", []*Analyzer{PoolPut}) }
func TestGuardedBy(t *testing.T)  { runFixture(t, "guardedby", []*Analyzer{GuardedBy}) }
func TestAtomicMix(t *testing.T)  { runFixture(t, "atomicmix", []*Analyzer{AtomicMix}) }

// TestCleanFixture runs the full suite over the clean fixture; it has no
// want comments, so any diagnostic fails the bidirectional match.
func TestCleanFixture(t *testing.T) { runFixture(t, "clean", Analyzers()) }

// TestMalformedIgnore asserts the framework reports unjustified or
// incomplete suppression directives.
func TestMalformedIgnore(t *testing.T) {
	pkg := loadFixture(t, "badignore")
	diags := RunPackage(pkg, Analyzers())
	var lintDiags []Diagnostic
	for _, d := range diags {
		if d.Check == "lint" {
			lintDiags = append(lintDiags, d)
		}
	}
	if len(lintDiags) != 3 {
		t.Fatalf("want 3 malformed-directive diagnostics, got %d: %v", len(lintDiags), diags)
	}
	for _, d := range lintDiags {
		if !strings.Contains(d.Message, "malformed //lint:ignore") &&
			!strings.Contains(d.Message, "suppression reason too short") {
			t.Errorf("unexpected message %q", d.Message)
		}
	}
}

// TestSuppressionRequiresMatchingCheck makes sure an ignore directive for
// one check does not silence another.
func TestSuppressionRequiresMatchingCheck(t *testing.T) {
	pkg := loadFixture(t, "nowcheck")
	// Run with a config and suite where the suppressed time.Now call in
	// suppressed() would be the only candidate; the directive names
	// nowcheck, so it must not leak through.
	diags := RunPackage(pkg, []*Analyzer{NowCheck})
	for _, d := range diags {
		if d.Line == suppressedLine(t, pkg) {
			t.Errorf("suppressed diagnostic leaked: %+v", d)
		}
	}
}

// suppressedLine finds the line of the suppressed time.Now call in the
// nowcheck fixture (the line after the ignore directive).
func suppressedLine(t *testing.T, pkg *Package) int {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//lint:ignore nowcheck") {
					return pkg.Fset.Position(c.Pos()).Line + 1
				}
			}
		}
	}
	t.Fatal("no //lint:ignore nowcheck directive found in fixture")
	return 0
}

// TestFuncQualName pins the allowlist key format.
func TestFuncQualName(t *testing.T) {
	pkg := loadFixture(t, "floateq")
	var got []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				got = append(got, funcQualName(pkg.Path, fd))
			}
		}
	}
	want := []string{
		"disttime/internal/lint/testdata/src/floateq.approvedHelper",
		"disttime/internal/lint/testdata/src/floateq.edge.Less",
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("funcQualName: %q not among %v", w, got)
		}
	}
}
