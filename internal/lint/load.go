// Loader: a stdlib-only package loader and type-checker for the lint
// driver. It resolves module-internal import paths against the repository
// root and everything else against GOROOT/src, type-checking from source
// (the go/importer "gc" importer needs compiled export data, which modern
// toolchains no longer ship in GOROOT/pkg; type-checking the standard
// library from source keeps the driver dependency-free and hermetic).
//
// The loader memoizes packages by import path, so a whole-repository run
// type-checks each standard-library dependency exactly once. Detailed
// types.Info is recorded only for module-internal packages — the analyzers
// never look inside the standard library, they only need its objects.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked package as seen by the analyzers.
type Package struct {
	// Path is the import path ("disttime/internal/interval").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's findings for Files. It is populated
	// for packages loaded via LoadDir and nil for transitive imports.
	Info *types.Info
	// Fset positions for Files.
	Fset *token.FileSet
}

// Loader loads and type-checks packages from source.
type Loader struct {
	Fset *token.FileSet
	// ModulePath is the module's import-path prefix ("disttime").
	ModulePath string
	// ModuleDir is the directory containing go.mod.
	ModuleDir string

	ctx     build.Context
	pkgs    map[string]*types.Package // memoized transitive imports
	loading map[string]bool           // cycle detection
}

// NewLoader returns a loader rooted at the given module.
func NewLoader(moduleDir, modulePath string) *Loader {
	ctx := build.Default
	// Cgo-free file selection: the lint driver only needs types, and the
	// pure-Go variants of net etc. type-check from source without the cgo
	// preprocessing step.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		ctx:        ctx,
		pkgs:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(importPath string) (string, error) {
	if importPath == l.ModulePath {
		return l.ModuleDir, nil
	}
	if strings.HasPrefix(importPath, l.ModulePath+"/") {
		rel := strings.TrimPrefix(importPath, l.ModulePath+"/")
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), nil
	}
	goroot := l.ctx.GOROOT
	if goroot == "" {
		goroot = runtime.GOROOT()
	}
	dir := filepath.Join(goroot, "src", filepath.FromSlash(importPath))
	if _, err := os.Stat(dir); err != nil {
		// The standard library vendors its external dependencies
		// (golang.org/x/...) under src/vendor.
		vendored := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(importPath))
		if _, verr := os.Stat(vendored); verr == nil {
			return vendored, nil
		}
	}
	return dir, nil
}

// Import implements types.Importer so the type-checker can resolve
// dependencies through the loader.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir, err := l.dirFor(importPath)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	conf := l.config()
	pkg, err := conf.Check(importPath, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

func (l *Loader) config() types.Config {
	return types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		// Tolerate individual errors so one stray issue does not hide
		// the rest of a package; fatal problems still surface through
		// Check's returned error.
		Error: func(error) {},
	}
}

// parseDir parses the build-selected source files of dir. Comments are
// retained only when withComments is set (module-internal packages need
// them for //lint:ignore directives; the standard library does not).
func (l *Loader) parseDir(dir string, withComments bool) ([]*ast.File, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	mode := parser.SkipObjectResolution
	if withComments {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir loads, parses (with comments), and fully type-checks the package
// in dir under the given import path, recording complete types.Info for
// the analyzers.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := l.config()
	l.loading[importPath] = true
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	delete(l.loading, importPath)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	// Memoize only if this package has not already been imported
	// transitively: replacing the instance would give later packages a
	// different identity for the same import path and poison their
	// type checks.
	if _, exists := l.pkgs[importPath]; !exists {
		l.pkgs[importPath] = tpkg
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		Fset:  l.Fset,
	}, nil
}
