// Package experiments reproduces every figure, theorem bound, and in-text
// experimental claim of the paper. Each experiment is a deterministic,
// seeded function returning a Table; the registry in All drives
// cmd/timesim and the EXPERIMENTS.md record.
//
// The experiment identifiers (E1..E16) match the per-experiment index in
// DESIGN.md.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (E1..E16, A1..A9, S1).
	ID string
	// Title names the experiment.
	Title string
	// Claim is the paper's statement being checked.
	Claim string
	// Finding summarizes what this run measured, in one line.
	Finding string
	// Header and Rows hold the tabular series.
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "found: %s\n", t.Finding)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV writes the table's header and rows as CSV, for plotting the
// series outside Go. The claim and finding travel as comment lines
// prefixed with '#'.
func (t Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "# paper: %s\n", t.Claim); err != nil {
			return err
		}
	}
	if t.Finding != "" {
		if _, err := fmt.Fprintf(w, "# found: %s\n", t.Finding); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Entry is one registered experiment.
type Entry struct {
	// ID is the DESIGN.md identifier (E1..E16, A1..A9, S1).
	ID string
	// Slug is the cmd/timesim -experiment name.
	Slug string
	// Source cites the paper element reproduced.
	Source string
	// Run executes the experiment.
	Run func() (Table, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Entry {
	return []Entry{
		{ID: "E1", Slug: "fig1", Source: "Figure 1", Run: Figure1},
		{ID: "E2", Slug: "fig2", Source: "Figure 2 / Theorem 6", Run: Figure2},
		{ID: "E3", Slug: "correctness", Source: "Theorems 1 and 5", Run: Correctness},
		{ID: "E4", Slug: "thm2", Source: "Theorem 2", Run: Theorem2},
		{ID: "E5", Slug: "thm3", Source: "Theorem 3", Run: Theorem3},
		{ID: "E6", Slug: "thm4", Source: "Theorem 4", Run: Theorem4},
		{ID: "E7", Slug: "thm7", Source: "Theorem 7", Run: Theorem7},
		{ID: "E8", Slug: "thm8", Source: "Theorem 8", Run: Theorem8},
		{ID: "E9", Slug: "recovery", Source: "Section 3 experiment", Run: Recovery},
		{ID: "E10", Slug: "imvsmm", Source: "Section 4 experiment", Run: IMvsMM},
		{ID: "E11", Slug: "fig3", Source: "Figure 3", Run: Figure3},
		{ID: "E12", Slug: "fig4", Source: "Figure 4", Run: Figure4},
		{ID: "E13", Slug: "consonance", Source: "Section 5", Run: Consonance},
		{ID: "E14", Slug: "baselines", Source: "Section 1.2 baselines", Run: Baselines},
		{ID: "E15", Slug: "ftintersect", Source: "[Marzullo 83] extension", Run: FaultTolerantIntersection},
		{ID: "E16", Slug: "breakdown", Source: "Section 3 breakdown caveat", Run: RecoveryBreakdown},
	}
}

// Registry lists everything cmd/timesim -experiment can run, in the order
// -list prints it: the paper experiments, the ablations, the scale family.
func Registry() []Entry {
	return slices.Concat(All(), Ablations(), ScaleEntries())
}

// FindAny returns the registry entry whose ID or Slug matches name
// (case-insensitive).
func FindAny(name string) (Entry, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, name) || strings.EqualFold(e.Slug, name) {
			return e, true
		}
	}
	return Entry{}, false
}

// f formats a float compactly for table cells.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// fi formats an int for table cells.
func fi(v int) string { return strconv.Itoa(v) }

// fb formats a bool for table cells.
func fb(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
