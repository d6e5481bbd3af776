package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// internalNameExempt lists the exported internal names that stay with
// no non-test caller, or, for a field, with no non-test writer, each with
// its reason (DESIGN.md §14, "Internal names"). The other two exemptions
// are rules, not names: a method that satisfies an interface method is
// called through the interface, and a field with a json tag is read and
// written by encoding/json.
var internalNameExempt = map[string]string{
	// The planted bugs the chaos harness must catch, and the seam that
	// injects them: the tests that prove the monitor has teeth are
	// their only callers, by design. (txn.BuggyCommitWait needs no
	// entry: examples/txn runs it.)
	"chaos.BuggyMM":     "planted bug",
	"chaos.BuggyIM":     "planted bug",
	"chaos.BuggySlew":   "planted bug",
	"chaos.BuggyAnchor": "planted bug",
	"chaos.RunInjected": "injects a planted bug",
	// experiments.TestRunAllDeterministic varies the worker count to
	// show the output does not depend on it.
	"par.SetLimit": "varied by another package's determinism test",
	// The paper's σ ≠ ρ link: TestAsymmetricLinksStayCorrect is the only
	// check of the rules under a persistent asymmetric split, and no
	// product topology has one.
	"simnet.LinkConfig.ReverseDelay": "the asymmetric link only a test builds",
}

// internalTree is the module's non-test Go, type-checked once and shared
// by the whole-tree rules below.
type internalTree struct {
	pkgs   []*Package
	loader *Loader
	prefix string // import-path prefix of the packages the rules hold
}

var loadInternalTree = sync.OnceValues(func() (*internalTree, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	moduleDir, modulePath, err := findModule(cwd)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(moduleDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	tree := &internalTree{loader: NewLoader(moduleDir, modulePath), prefix: modulePath + "/internal/"}
	for _, dir := range dirs {
		importPath, err := importPathFor(moduleDir, modulePath, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := tree.loader.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		tree.pkgs = append(tree.pkgs, pkg)
	}
	return tree, nil
})

// wholeTree returns the loaded module, skipping the test under -short.
func wholeTree(t *testing.T) *internalTree {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-tree type check skipped in -short mode")
	}
	tree, err := loadInternalTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestInternalNamesHaveCallers holds every exported function, method,
// type, field and constant declared under internal/ to one rule: some
// non-test Go file in the module references it, in its own package or
// any other (cmd/ and examples/ included). A name only tests reach is
// dead product code and goes, with the code only it reaches. It also
// checks the exemptions of both whole-tree rules.
func TestInternalNamesHaveCallers(t *testing.T) {
	tree := wholeTree(t)
	named := make(map[string]bool)
	for _, name := range uncalledInternalNames(tree.pkgs, tree.loader, tree.prefix) {
		named[name] = true
		if _, ok := internalNameExempt[name]; !ok {
			t.Errorf("%s: exported, but no non-test Go references it", name)
		}
	}
	for _, name := range unwrittenInternalFields(tree.pkgs, tree.loader, tree.prefix) {
		named[name] = true
	}
	// An exemption outlives its reason once the name gains a caller or
	// a writer, or goes: drop it then, so the list stays the list of
	// exceptions.
	for name := range internalNameExempt {
		if !named[name] {
			t.Errorf("%s: exempt, but it has a caller and a writer, or is gone", name)
		}
	}
}

// TestInternalFieldsHaveWriters holds every exported field of an
// exported struct declared under internal/ to a second rule: some
// non-test Go file in the module writes it (writtenFields lists the
// forms that count). A field no product sets is zero in every product
// run, so it is a constant, and each branch that reads it is dead code.
func TestInternalFieldsHaveWriters(t *testing.T) {
	tree := wholeTree(t)
	for _, name := range unwrittenInternalFields(tree.pkgs, tree.loader, tree.prefix) {
		if _, ok := internalNameExempt[name]; !ok {
			t.Errorf("%s: exported field, but no non-test Go writes it", name)
		}
	}
}

// uncalledInternalNames returns, sorted, the exported names declared in
// packages under prefix that no file of pkgs references, less methods
// that satisfy an interface and fields with a json tag.
func uncalledInternalNames(pkgs []*Package, loader *Loader, prefix string) []string {
	used := referencedObjects(pkgs, loader)
	ifaces := knownInterfaces(pkgs, loader)
	var out []string
	report := func(obj types.Object, name string) {
		if !used[declPos(loader, obj)] {
			out = append(out, name)
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path+"/", prefix) {
			continue
		}
		short := pkg.Path[strings.LastIndex(pkg.Path, "/")+1:]
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(obj, short+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfiesInterface(named, m, ifaces) {
					report(m, short+"."+name+"."+m.Name())
				}
			}
			eachRuledField(named, func(f *types.Var) { report(f, short+"."+name+"."+f.Name()) })
		}
	}
	sort.Strings(out)
	return out
}

// eachRuledField calls fn for each exported, non-embedded field of named
// without a json tag: encoding/json reads and writes a tagged one.
func eachRuledField(named *types.Named, fn func(*types.Var)) {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() && !f.Embedded() {
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !tagged {
				fn(f)
			}
		}
	}
}

// unwrittenInternalFields returns, sorted, the exported fields of
// exported structs declared in packages under prefix that no file of
// pkgs writes, less fields with a json tag.
func unwrittenInternalFields(pkgs []*Package, loader *Loader, prefix string) []string {
	written := writtenFields(pkgs, loader)
	var out []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path+"/", prefix) {
			continue
		}
		short := pkg.Path[strings.LastIndex(pkg.Path, "/")+1:]
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				eachRuledField(named, func(f *types.Var) {
					if !written[declPos(loader, f)] {
						out = append(out, short+"."+name+"."+f.Name())
					}
				})
			}
		}
	}
	sort.Strings(out)
	return out
}

// writtenFields returns the struct fields some file of pkgs writes,
// generic instances folded to their origin. These count as a write of
// x.F: a keyed or unkeyed composite literal that sets F; x.F as the
// target of an assignment, a range clause, ++ or --, or as the operand
// of &; and a call or method value of a pointer method on x.F, as in
// n.Rates.Observe. A write through x.F (x.F[i] = v, x.F.G++) writes x.F
// too.
func writtenFields(pkgs []*Package, loader *Loader) map[string]bool {
	written := make(map[string]bool)
	mark := func(f *types.Var) { written[declPos(loader, f.Origin())] = true }
	for _, pkg := range pkgs {
		info := pkg.Info
		// target marks every field on the path to what e stores into.
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					mark(sel.Obj().(*types.Var))
					e = x.X
				default:
					return
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := compositeStruct(info.Types[n].Type)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							mark(st.Field(i))
						}
						break
					}
					for _, elt := range n.Elts {
						if key, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							if f, ok := info.Uses[key].(*types.Var); ok {
								mark(f)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if e != nil {
								target(e)
							}
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.SelectorExpr:
					if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
						recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv()
						if _, ptr := recv.Type().(*types.Pointer); ptr {
							target(n.X)
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// compositeStruct returns the struct a composite literal of type t
// builds; an elided &T{…} in a []*T literal has type *T.
func compositeStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// declPos names obj by where it is declared. A package the loader
// type-checked twice, once as an import and once on its own, has two
// objects for each name, but one declaration.
func declPos(loader *Loader, obj types.Object) string {
	return loader.Fset.Position(obj.Pos()).String()
}

// referencedObjects returns the declarations some file of pkgs refers
// to, generic instances folded to their origin. A function's references
// to itself and a method's receiver type do not count: a name is not its
// own caller.
func referencedObjects(pkgs []*Package, loader *Loader) map[string]bool {
	used := make(map[string]bool)
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pos().IsValid() {
			used[declPos(loader, obj)] = true
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
					if fd.Recv != nil {
						decl = &ast.FuncDecl{Name: fd.Name, Type: fd.Type, Body: fd.Body}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if obj := pkg.Info.Uses[n]; obj != nil && obj != self {
							mark(obj)
						}
					case *ast.CompositeLit:
						// An unkeyed struct literal sets every field.
						if len(n.Elts) > 0 {
							if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
								if st, ok := pkg.Info.Types[n].Type.Underlying().(*types.Struct); ok {
									for i := 0; i < st.NumFields(); i++ {
										mark(st.Field(i))
									}
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// knownInterfaces returns every non-generic named interface the loader
// type-checked: error, the standard library's exported ones and all of
// the module's.
func knownInterfaces(pkgs []*Package, loader *Loader) []*types.Interface {
	scopes := []*types.Scope{types.Universe}
	for _, p := range loader.pkgs {
		scopes = append(scopes, p.Scope())
	}
	for _, p := range pkgs {
		scopes = append(scopes, p.Types.Scope())
	}
	module := loader.ModulePath + "/"
	var out []*types.Interface
	for _, s := range scopes {
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			// Only an exported interface is a contract outside the
			// module: encoding/json's isZeroer does not make every
			// IsZero method a caller's.
			if p := tn.Pkg(); p != nil && !tn.Exported() && !strings.HasPrefix(p.Path()+"/", module) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether m is how named, or a pointer to it,
// implements one of ifaces.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// TestFieldWriterRule runs the writer rule over its fixture: the field
// only a _test.go file sets is named; each write form the rule counts,
// a pointer-method call and an unkeyed literal among them, clears its
// field; and a json-tagged field needs no writer.
func TestFieldWriterRule(t *testing.T) {
	pkg := loadFixture(t, "writers")
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	got := unwrittenInternalFields([]*Package{pkg}, loader, pkg.Path+"/")
	if want := []string{"writers.Config.Planted"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwritten fields %q, want %q", got, want)
	}
}
