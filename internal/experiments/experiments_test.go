package experiments

import (
	"math"
	"strings"
	"testing"

	"disttime/internal/interval"
)

// TestAllExperimentsPass executes every registered experiment; each one
// asserts its own paper-claim internally and fails with an error when the
// reproduced shape does not hold.
func TestAllExperimentsPass(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if seen[e.ID] || seen[e.Slug] {
				t.Fatalf("duplicate id/slug %s/%s", e.ID, e.Slug)
			}
			seen[e.ID], seen[e.Slug] = true, true
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("experiment failed: %v\n%s", err, tbl)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID = %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Error("no rows produced")
			}
			if tbl.Finding == "" {
				t.Error("no finding recorded")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row width %d != header width %d: %v", len(row), len(tbl.Header), row)
				}
			}
		})
	}
}

func TestAllCoversDesignIndex(t *testing.T) {
	// DESIGN.md enumerates E1..E16; the registry must match exactly.
	want := 16
	if got := len(All()); got != want {
		t.Errorf("registry has %d experiments, DESIGN.md lists %d", got, want)
	}
}

func TestFind(t *testing.T) {
	tests := []struct {
		name   string
		wantOK bool
		wantID string
	}{
		{name: "E1", wantOK: true, wantID: "E1"},
		{name: "e1", wantOK: true, wantID: "E1"},
		{name: "fig1", wantOK: true, wantID: "E1"},
		{name: "RECOVERY", wantOK: true, wantID: "E9"},
		{name: "a9", wantOK: true, wantID: "A9"},
		{name: "Ablation-Loss", wantOK: true, wantID: "A4"},
		{name: "s1", wantOK: true, wantID: "S1"},
		{name: "nonsense", wantOK: false},
		{name: "", wantOK: false},
	}
	for _, tt := range tests {
		e, ok := FindAny(tt.name)
		if ok != tt.wantOK {
			t.Errorf("FindAny(%q) ok = %v, want %v", tt.name, ok, tt.wantOK)
		}
		if ok && e.ID != tt.wantID {
			t.Errorf("FindAny(%q).ID = %q, want %q", tt.name, e.ID, tt.wantID)
		}
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{
		ID:      "EX",
		Title:   "example",
		Claim:   "a claim",
		Finding: "a finding",
		Header:  []string{"col", "value"},
		Rows:    [][]string{{"a", "1"}, {"bb", "22"}},
	}
	s := tbl.String()
	for _, want := range []string{"EX: example", "paper: a claim", "found: a finding", "col", "bb"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// Alignment: header and rows share column offsets.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 6 {
		t.Fatalf("unexpected line count: %d", len(lines))
	}
}

func TestFormattingHelpers(t *testing.T) {
	if f(1.5) != "1.5" {
		t.Errorf("f(1.5) = %q", f(1.5))
	}
	if fi(7) != "7" {
		t.Errorf("fi(7) = %q", fi(7))
	}
	if fb(true) != "yes" || fb(false) != "no" {
		t.Errorf("fb broken")
	}
}

// TestAllAblationsPass executes every ablation study.
func TestAllAblationsPass(t *testing.T) {
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("ablation failed: %v\n%s", err, tbl)
			}
			if len(tbl.Rows) == 0 || tbl.Finding == "" {
				t.Error("incomplete table")
			}
		})
	}
}

func TestFindAny(t *testing.T) {
	if _, ok := FindAny("A3"); !ok {
		t.Error("FindAny missed an ablation by ID")
	}
	if _, ok := FindAny("ablation-loss"); !ok {
		t.Error("FindAny missed an ablation by slug")
	}
	if e, ok := FindAny("fig1"); !ok || e.ID != "E1" {
		t.Error("FindAny missed a paper experiment")
	}
	if _, ok := FindAny("bogus"); ok {
		t.Error("FindAny matched nonsense")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := Table{
		ID:      "EX",
		Title:   "example",
		Claim:   "c",
		Finding: "f",
		Header:  []string{"a", "b"},
		Rows:    [][]string{{"1", "with,comma"}},
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# EX: example", "# paper: c", "# found: f", "a,b", `"with,comma"`} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestDiagramRender(t *testing.T) {
	d := Diagram{
		Title: "test",
		Truth: 5,
		Width: 40,
		Rows: []DiagramRow{
			{Label: "A", Interval: interval.Interval{Lo: 0, Hi: 10}},
			{Label: "BB", Interval: interval.Interval{Lo: 4, Hi: 6}},
		},
	}
	out := d.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, 2 rows, gutter, caption
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "A ") || !strings.HasPrefix(lines[2], "BB") {
		t.Errorf("labels misaligned:\n%s", out)
	}
	for _, row := range lines[1:3] {
		if !strings.Contains(row, "|") {
			t.Errorf("row missing edges: %q", row)
		}
	}
	if !strings.Contains(lines[3], "^") {
		t.Errorf("truth gutter missing:\n%s", out)
	}
	if !strings.Contains(lines[4], "correct time") {
		t.Errorf("caption missing:\n%s", out)
	}
}

func TestDiagramRenderNoTruth(t *testing.T) {
	d := Diagram{
		Truth: math.NaN(),
		Rows:  []DiagramRow{{Label: "X", Interval: interval.Interval{Lo: 1, Hi: 2}}},
	}
	out := d.Render()
	if strings.Contains(out, "^") || strings.Contains(out, "correct time") {
		t.Errorf("truth artifacts without a truth:\n%s", out)
	}
}

func TestDiagramRenderDegenerate(t *testing.T) {
	// A single zero-width interval must not divide by zero.
	d := Diagram{
		Truth: math.NaN(),
		Rows:  []DiagramRow{{Label: "P", Interval: interval.Interval{Lo: 5, Hi: 5}}},
	}
	if out := d.Render(); !strings.Contains(out, "|") {
		t.Errorf("degenerate render:\n%s", out)
	}
	// Empty diagram renders without panicking.
	empty := Diagram{Title: "empty", Truth: math.NaN()}
	_ = empty.Render()
}

func TestFiguresContainsAllFour(t *testing.T) {
	out, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Figure 2 (left)", "Figure 2 (right)", "Figure 3", "Figure 4", "group 3", "correct time"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figures() missing %q", want)
		}
	}
	// Figure 3's derived S2^S3 region must exclude the marked truth: the
	// '^' column sits outside the S2^S3 row's edges.
	if !strings.Contains(out, "S2^S3") {
		t.Error("Figure 3 missing the derived region")
	}
}
