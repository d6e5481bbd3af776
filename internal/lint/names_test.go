package lint

import (
	"go/ast"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// internalNameExempt lists the exported internal names that stay with
// no non-test caller, each with its reason (DESIGN.md §14, "Internal
// names"). The other two exemptions are rules, not names: a method that
// satisfies an interface method is called through the interface, and a
// field with a json tag is read by encoding/json.
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
}

// TestInternalNamesHaveCallers holds every exported function, method,
// type, field and constant declared under internal/ to one rule: some
// non-test Go file in the module references it, in its own package or
// any other (cmd/ and examples/ included). A name only tests reach is
// dead product code and goes, with the code only it reaches.
func TestInternalNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type check skipped in -short mode")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, modulePath, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expandPatterns(moduleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(moduleDir, modulePath)
	var pkgs []*Package
	for _, dir := range dirs {
		importPath, err := importPathFor(moduleDir, modulePath, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, importPath)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	uncalled := make(map[string]bool)
	for _, name := range uncalledInternalNames(pkgs, loader, modulePath+"/internal/") {
		uncalled[name] = true
		if _, ok := internalNameExempt[name]; !ok {
			t.Errorf("%s: exported, but no non-test Go references it", name)
		}
	}
	// An exemption outlives its reason once the name gains a caller or
	// goes: drop it then, so the list stays the list of exceptions.
	for name := range internalNameExempt {
		if !uncalled[name] {
			t.Errorf("%s: exempt, but it has a caller or is gone", name)
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
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() {
					if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !tagged {
						report(f, short+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
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
