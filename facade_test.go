package disttime_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestFacadeTableMatchesTree holds DESIGN.md's "Facade names" table to
// disttime.go. Every name the facade exports is in exactly one row, every
// row's name is exported, and each row's caller is either a file that
// spells disttime.<Name> for each name of the row (a test file is not a
// caller) or another name of the facade whose signature carries them.
func TestFacadeTableMatchesTree(t *testing.T) {
	exported := facadeNames(t)
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := facadeTable(string(doc))
	if len(rows) == 0 {
		t.Fatal(`DESIGN.md has no table under a "**Facade names.**" paragraph`)
	}
	listed := map[string]bool{}
	for _, r := range rows {
		for _, name := range r.names {
			if listed[name] {
				t.Errorf("%s is listed twice", name)
			}
			listed[name] = true
			if !exported[name] {
				t.Errorf("the table lists %s, which disttime.go does not export", name)
			}
		}
	}
	for name := range exported {
		if !listed[name] {
			t.Errorf("disttime.go exports %s, which the table does not list", name)
		}
	}
	for _, r := range rows {
		if !strings.ContainsAny(r.caller, "./") {
			if !exported[r.caller] {
				t.Errorf("%v: caller %s is neither a file nor a facade name", r.names, r.caller)
			}
			continue
		}
		if strings.HasSuffix(r.caller, "_test.go") {
			t.Errorf("%v: caller %s is a test file", r.names, r.caller)
			continue
		}
		src, err := os.ReadFile(r.caller)
		if err != nil {
			t.Errorf("%v: %v", r.names, err)
			continue
		}
		for _, name := range r.names {
			if !strings.Contains(string(src), "disttime."+name) {
				t.Errorf("%s is listed with caller %s, which does not use disttime.%s", name, r.caller, name)
			}
		}
	}
}

// facadeNames returns the names disttime.go declares at top level and
// exports.
func facadeNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "disttime.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			t.Errorf("disttime.go declares a function; the facade holds only aliases")
			continue
		}
		for _, spec := range gen.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Assign.IsValid() {
					t.Errorf("disttime.go defines type %s; the facade holds only aliases", s.Name.Name)
				}
				add(s.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					add(n)
				}
			}
		}
	}
	return names
}

// facadeRow is one row of the table: the names it lists and their caller.
type facadeRow struct {
	names  []string
	caller string
}

// facadeTable parses the first table after the "**Facade names.**"
// paragraph. Each row's first cell lists backquoted names and its second
// cell one backquoted caller; further cells are prose.
func facadeTable(doc string) []facadeRow {
	lines := strings.Split(doc, "\n")
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], "**Facade names.**") {
		i++
	}
	for i < len(lines) && !strings.HasPrefix(lines[i], "|") {
		i++
	}
	var rows []facadeRow
	for ; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
		cells := strings.Split(lines[i], "|")
		if len(cells) < 4 {
			continue
		}
		names := backquoted(cells[1])
		callers := backquoted(cells[2])
		if len(names) == 0 || len(callers) != 1 {
			continue // the header and the rule under it
		}
		rows = append(rows, facadeRow{names: names, caller: callers[0]})
	}
	return rows
}

// backquoted returns the backquoted spans of a table cell.
func backquoted(cell string) []string {
	parts := strings.Split(cell, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}
