// Driver: pattern expansion, analyzer selection, output formatting, and
// exit-code policy for cmd/disttimelint. The driver lives in the library
// so tests can run it in-process and assert exit codes and JSON shape.
package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/build"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Exit codes.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one diagnostic
	ExitError    = 2 // usage, load, or type-check failure
)

// Main runs the lint driver: disttimelint [-json] [-checks a,b]
// [patterns...]. Patterns are directories or "dir/..." walks, resolved
// relative to the current directory; the default is "./...". It returns
// the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disttimelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: disttimelint [-json] [-checks a,b] [patterns...]\n\nchecks:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	analyzers, err := selectAnalyzers(*checksFlag)
	if err != nil {
		fmt.Fprintf(stderr, "disttimelint: %v\n", err)
		return ExitError
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "disttimelint: %v\n", err)
		return ExitError
	}
	moduleDir, modulePath, err := findModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "disttimelint: %v\n", err)
		return ExitError
	}

	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "disttimelint: %v\n", err)
		return ExitError
	}

	loader := NewLoader(moduleDir, modulePath)
	var diags []Diagnostic
	packages := 0
	for _, dir := range dirs {
		importPath, err := importPathFor(moduleDir, modulePath, dir)
		if err != nil {
			fmt.Fprintf(stderr, "disttimelint: %v\n", err)
			return ExitError
		}
		pkg, err := loader.LoadDir(dir, importPath)
		if err != nil {
			fmt.Fprintf(stderr, "disttimelint: %v\n", err)
			return ExitError
		}
		packages++
		diags = append(diags, RunPackage(pkg, analyzers)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if diags == nil {
			diags = []Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "disttimelint: %v\n", err)
			return ExitError
		}
	} else {
		for _, d := range diags {
			rel := d.File
			if r, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(r, "..") {
				rel = r
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel, d.Line, d.Col, d.Check, d.Message)
		}
	}
	// Machine-readable per-analyzer summary, on stderr so -json stdout
	// stays a pure diagnostic array. CI logs grep this line to see at a
	// glance which checks ran and what each found.
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Check]++
	}
	summary := fmt.Sprintf("disttimelint: %d packages, %d diagnostics:", packages, len(diags))
	for _, a := range analyzers {
		summary += fmt.Sprintf(" %s=%d", a.Name, counts[a.Name])
	}
	if n := counts["lint"]; n > 0 {
		summary += fmt.Sprintf(" lint=%d", n)
	}
	fmt.Fprintln(stderr, summary)

	if len(diags) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// selectAnalyzers resolves the -checks flag to a subset of the suite.
func selectAnalyzers(checks string) ([]*Analyzer, error) {
	all := Analyzers()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func findModule(dir string) (moduleDir, modulePath string, err error) {
	d := dir
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// importPathFor maps a directory inside the module to its import path.
func importPathFor(moduleDir, modulePath, dir string) (string, error) {
	rel, err := filepath.Rel(moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, moduleDir)
	}
	if rel == "." {
		return modulePath, nil
	}
	return path.Join(modulePath, filepath.ToSlash(rel)), nil
}

// expandPatterns resolves CLI patterns to package directories. "dir/..."
// walks recursively, skipping testdata, vendor, hidden, and underscore
// directories (explicitly named directories are always accepted, so the
// driver can be pointed straight at a fixture).
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		root = filepath.Clean(root)
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", pat)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir contains at least one buildable non-test
// Go file.
func hasGoFiles(dir string) bool {
	ctx := build.Default
	ctx.CgoEnabled = false
	bp, err := ctx.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
