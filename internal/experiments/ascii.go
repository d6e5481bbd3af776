package experiments

import (
	"fmt"
	"math"
	"strings"

	"disttime/internal/interval"
)

// This file renders interval diagrams as text, reproducing the paper's
// figures as figures: labeled intervals on a shared real-time axis with
// the correct time marked, as in Figures 1-4. cmd/timesim -figures prints
// all four.

// DiagramRow is one labeled interval in a diagram.
type DiagramRow struct {
	// Label names the row (e.g. "S1" or "S2 @ t=3600").
	Label string
	// Interval is the row's extent on the time axis.
	Interval interval.Interval
}

// Diagram is a renderable set of intervals over a common axis.
type Diagram struct {
	// Title is printed above the axis.
	Title string
	// Truth, when not NaN, marks the correct time with a vertical line.
	Truth float64
	// Rows are rendered top to bottom.
	Rows []DiagramRow
	// Width is the rendered axis width in characters (default 60).
	Width int
}

// Render draws the diagram:
//
//	S1  |--------+--------|
//	S2       |---+---|
//	         ^ correct time
//
// Each interval is drawn to scale between the extremes of all rows (and
// the truth marker); the midpoint is marked '+', edges '|', and the
// correct time with a '^' gutter line beneath.
func (d Diagram) Render() string {
	width := d.Width
	if width <= 0 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range d.Rows {
		lo = math.Min(lo, r.Interval.Lo)
		hi = math.Max(hi, r.Interval.Hi)
	}
	if !math.IsNaN(d.Truth) {
		lo = math.Min(lo, d.Truth)
		hi = math.Max(hi, d.Truth)
	}
	if math.IsInf(lo, 1) || hi <= lo {
		// Degenerate: nothing meaningful to scale.
		lo, hi = 0, 1
	}
	span := hi - lo
	pad := span * 0.04
	lo, hi = lo-pad, hi+pad
	span = hi - lo
	col := func(v float64) int {
		c := int(math.Round((v - lo) / span * float64(width-1)))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}

	labelWidth := 0
	for _, r := range d.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}

	var b strings.Builder
	if d.Title != "" {
		fmt.Fprintf(&b, "%s\n", d.Title)
	}
	for _, r := range d.Rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		start, end := col(r.Interval.Lo), col(r.Interval.Hi)
		for i := start; i <= end; i++ {
			line[i] = '-'
		}
		line[start], line[end] = '|', '|'
		if mid := col(r.Interval.Midpoint()); line[mid] == '-' {
			line[mid] = '+'
		}
		if !math.IsNaN(d.Truth) {
			t := col(d.Truth)
			switch line[t] {
			case '-':
				line[t] = ':'
			case ' ':
				line[t] = '.'
			}
		}
		fmt.Fprintf(&b, "%-*s  %s\n", labelWidth, r.Label, string(line))
	}
	if !math.IsNaN(d.Truth) {
		gutter := make([]byte, width)
		for i := range gutter {
			gutter[i] = ' '
		}
		gutter[col(d.Truth)] = '^'
		fmt.Fprintf(&b, "%-*s  %s\n", labelWidth, "", string(gutter))
		fmt.Fprintf(&b, "%-*s  %s\n", labelWidth, "",
			centerAt(fmt.Sprintf("correct time = %.4g", d.Truth), col(d.Truth), width))
	}
	return b.String()
}

// centerAt places text as close as possible to column c in a field of
// the given width.
func centerAt(text string, c, width int) string {
	start := c - len(text)/2
	if start < 0 {
		start = 0
	}
	if start+len(text) > width {
		start = width - len(text)
		if start < 0 {
			start = 0
		}
	}
	return strings.Repeat(" ", start) + text
}

// Figures renders the paper's four figures as interval diagrams, drawn
// from the inputs E1, E2, E11 and E12 check: Figure 1 from E1's servers'
// own readings, the others from the intervals and replies those
// experiments declare.
func Figures() (string, error) {
	// Figure 1: growth of maximum errors — three servers at three epochs.
	servers, err := figure1Servers()
	if err != nil {
		return "", err
	}
	fig1 := Diagram{
		Title: "Figure 1 — Growth of Maximum Errors (t = 7200 s; offsets from the correct time, seconds)",
		Truth: 0,
	}
	for _, t := range figure1Epochs {
		for i, s := range servers {
			r := s.Reading(t)
			fig1.Rows = append(fig1.Rows, DiagramRow{
				Label:    fmt.Sprintf("S%d t=%4.0f", i+1, t),
				Interval: interval.FromEstimate(r.C-t, r.E),
			})
		}
	}
	figs := []Diagram{fig1}

	// Figure 2: intersections — nested and staggered.
	for _, c := range figure2Cases {
		common, _ := interval.IntersectAll(c.ivs)
		figs = append(figs, Diagram{Title: c.title, Truth: math.NaN(), Rows: []DiagramRow{
			{Label: "S1", Interval: c.ivs[0]},
			{Label: "S2", Interval: c.ivs[1]},
			{Label: "S1^S2", Interval: common},
		}})
	}

	// Figure 3: the consistent state where IM fails.
	fig3 := Diagram{
		Title: "Figure 3 — consistent but only S1 and S3 correct: IM adopts the incorrect S2^S3",
		Truth: figure3Truth,
	}
	for _, r := range figure3Replies {
		fig3.Rows = append(fig3.Rows, DiagramRow{Label: fmt.Sprintf("S%d", r.From), Interval: interval.FromEstimate(r.C, r.E)})
	}
	s2s3, _ := fig3.Rows[1].Interval.Intersect(fig3.Rows[2].Interval)
	fig3.Rows = append(fig3.Rows, DiagramRow{Label: "S2^S3", Interval: s2s3})

	// Figure 4: the inconsistent six-server service (three groups, S2
	// shared).
	fig4 := Diagram{
		Title: "Figure 4 — an inconsistent six-server service: three consistency groups",
		Truth: math.NaN(),
	}
	for i, iv := range figure4Intervals {
		fig4.Rows = append(fig4.Rows, DiagramRow{Label: fmt.Sprintf("S%d", i+1), Interval: iv})
	}
	for gi, g := range interval.ConsistencyGroups(figure4Intervals) {
		fig4.Rows = append(fig4.Rows, DiagramRow{
			Label:    fmt.Sprintf("group %d", gi+1),
			Interval: g.Intersection,
		})
	}

	var rendered []string
	for _, d := range append(figs, fig3, fig4) {
		d.Width = 64
		rendered = append(rendered, d.Render())
	}
	return strings.Join(rendered, "\n"), nil
}
