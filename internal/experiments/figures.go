package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/interval"
)

// figure1Epochs are the real times, in seconds, at which E1 reads its
// servers.
var figure1Epochs = []float64{0, 3600, 7200}

// figure1Servers is E1's service: three correct servers, never
// synchronized, whose intervals both grow (rule MM-1) and shift (actual
// drift) with respect to the correct time as the system runs.
func figure1Servers() ([]*core.Server, error) {
	var states []*core.Server
	for i, s := range []struct{ delta, drift float64 }{
		{delta: 1e-5, drift: 0.8e-5},
		{delta: 3e-5, drift: -2.5e-5},
		{delta: 6e-5, drift: 5e-5},
	} {
		server, err := core.NewServer(0, core.Config{
			ID:           i + 1,
			Clock:        clock.NewDrifting(0, 0, s.drift),
			Delta:        s.delta,
			InitialError: 0.05,
		})
		if err != nil {
			return nil, err
		}
		states = append(states, server)
	}
	return states, nil
}

// Figure1 reproduces "Growth of Maximum Errors" over figure1Servers.
func Figure1() (Table, error) {
	states, err := figure1Servers()
	if err != nil {
		return Table{}, err
	}
	out := Table{
		ID:     "E1",
		Title:  "Growth of maximum errors (three servers, no synchronization)",
		Claim:  "as the system runs, the individual intervals both grow and shift with respect to the correct time",
		Header: []string{"t (s)", "server", "C-t (s)", "E (s)", "trailing", "leading", "correct"},
	}
	allCorrect := true
	widthGrew := true
	prevWidths := []float64{0, 0, 0}
	for _, t := range figure1Epochs {
		for i, s := range states {
			r := s.Reading(t)
			iv := r.Interval()
			correct := iv.Contains(t)
			allCorrect = allCorrect && correct
			if iv.Width() <= prevWidths[i] && t > 0 {
				widthGrew = false
			}
			prevWidths[i] = iv.Width()
			out.Rows = append(out.Rows, []string{
				f(t), fmt.Sprintf("S%d", i+1), f(r.C - t), f(r.E),
				f(iv.Lo - t), f(iv.Hi - t), fb(correct),
			})
		}
	}
	out.Finding = fmt.Sprintf("intervals grow and shift, all correct=%v, widths monotone=%v",
		allCorrect, widthGrew)
	return out, nil
}

// figure2Cases are Figure 2's two pairs of intervals, the left and the
// right.
var figure2Cases = []struct {
	name, title string
	ivs         []interval.Interval
}{
	{
		name:  "nested (left of Figure 2)",
		title: "Figure 2 (left) — one interval inside the other: intersection = the smaller",
		ivs:   []interval.Interval{interval.FromEstimate(100, 5), interval.FromEstimate(100.5, 1.5)},
	},
	{
		name:  "staggered (right of Figure 2)",
		title: "Figure 2 (right) — edges from different servers: intersection smaller than both",
		ivs:   []interval.Interval{interval.FromEstimate(99, 3), interval.FromEstimate(102, 3)},
	},
}

// Figure2 reproduces "Intersections of Maximum Errors" and Theorem 6: both
// the nested case (one interval inside the other: intersection equals the
// smaller) and the staggered case (edges from different servers: the
// intersection is smaller than every input), plus a randomized sweep.
func Figure2() (Table, error) {
	out := Table{
		ID:     "E2",
		Title:  "Intersection of server intervals (Theorem 6)",
		Claim:  "the intersection of the intervals is at least as small as the smallest interval",
		Header: []string{"case", "inputs", "smallest width", "intersection width", "<= smallest", "strictly smaller"},
	}

	for _, c := range figure2Cases {
		smallest := math.Inf(1)
		for _, iv := range c.ivs {
			smallest = math.Min(smallest, iv.Width())
		}
		common, ok := interval.IntersectAll(c.ivs)
		if !ok {
			return Table{}, fmt.Errorf("figure2: case %q unexpectedly inconsistent", c.name)
		}
		out.Rows = append(out.Rows, []string{
			c.name, fi(len(c.ivs)), f(smallest), f(common.Width()),
			fb(common.Width() <= smallest), fb(common.Width() < smallest),
		})
	}

	// Randomized sweep: correct services of 2..8 servers.
	rng := rand.New(rand.NewPCG(2025, 7))
	const trials = 5000
	holds, strictly := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(7)
		truth := rng.Float64() * 1000
		ivs := make([]interval.Interval, n)
		smallest := math.Inf(1)
		for i := range ivs {
			e := 0.1 + rng.Float64()*3
			ivs[i] = interval.FromEstimate(truth+(rng.Float64()*2-1)*e, e)
			smallest = math.Min(smallest, ivs[i].Width())
		}
		common, ok := interval.IntersectAll(ivs)
		if !ok {
			return Table{}, fmt.Errorf("figure2: correct service inconsistent at trial %d", trial)
		}
		if common.Width() <= smallest {
			holds++
		}
		if common.Width() < smallest {
			strictly++
		}
	}
	out.Rows = append(out.Rows, []string{
		fmt.Sprintf("random sweep (%d trials)", trials), "2..8",
		"-", "-", fmt.Sprintf("%d/%d", holds, trials), fmt.Sprintf("%d/%d", strictly, trials),
	})
	out.Finding = fmt.Sprintf("Theorem 6 held in %d/%d random trials (strictly smaller in %d)",
		holds, trials, strictly)
	if holds != trials {
		return out, fmt.Errorf("figure2: Theorem 6 violated in %d trials", trials-holds)
	}
	return out, nil
}

// figure3Truth is Figure 3's correct time.
const figure3Truth = 100.0

// figure3Replies are Figure 3's consistent state, where only S1 and S3
// are correct.
var figure3Replies = []core.Reply{
	{From: 1, C: 96, E: 6},   // S1: [90, 102], correct
	{From: 2, C: 95, E: 4},   // S2: [91, 99], incorrect
	{From: 3, C: 99.5, E: 2}, // S3: [97.5, 101.5], correct, smallest E
}

// Figure3 reproduces the consistent-but-partially-incorrect state where
// algorithm MM recovers correctness while algorithm IM adopts the
// incorrect region S2 ^ S3.
func Figure3() (Table, error) {
	out := Table{
		ID:     "E11",
		Title:  "Figure 3: a consistent state where MM recovers and IM does not",
		Claim:  "under MM a server would choose S3, while under IM a server would choose the incorrect interval S2^S3",
		Header: []string{"algorithm", "resulting C", "resulting E", "interval", "contains correct time"},
	}
	for _, fn := range []core.SyncFunc{core.MM{}, core.IM{}} {
		s, err := core.NewServer(0, core.Config{
			ID:           0,
			Clock:        clock.NewDrifting(0, 97, 0),
			Delta:        0,
			InitialError: 8,
		})
		if err != nil {
			return Table{}, err
		}
		res := fn.Sync(s, 0, figure3Replies)
		if !res.Reset {
			return Table{}, fmt.Errorf("figure3: %s did not reset", fn.Name())
		}
		iv := s.Interval(0)
		out.Rows = append(out.Rows, []string{
			fn.Name(), f(s.Read(0)), f(s.Epsilon()),
			fmt.Sprintf("[%s, %s]", f(iv.Lo), f(iv.Hi)), fb(iv.Contains(figure3Truth)),
		})
	}
	mmCorrect := out.Rows[0][4] == "yes"
	imCorrect := out.Rows[1][4] == "yes"
	out.Finding = fmt.Sprintf("MM correct=%v (chose S3), IM correct=%v (chose S2^S3)", mmCorrect, imCorrect)
	if !mmCorrect || imCorrect {
		return out, fmt.Errorf("figure3: expected MM correct and IM incorrect, got MM=%v IM=%v",
			mmCorrect, imCorrect)
	}
	return out, nil
}

// figure4Intervals are Figure 4's six servers, forming three maximal
// consistency groups; S2 belongs to two of them, showing that
// consistency is not transitive (which is why the paper notes a majority
// voting scheme may not work).
var figure4Intervals = []interval.Interval{
	{Lo: 0, Hi: 3},   // S1
	{Lo: 2.5, Hi: 6}, // S2: consistent with S1 and with S3, S4
	{Lo: 5, Hi: 9},   // S3
	{Lo: 5.5, Hi: 8}, // S4
	{Lo: 10, Hi: 14}, // S5
	{Lo: 11, Hi: 15}, // S6
}

// Figure4 reproduces the inconsistent six-server time service that
// partitions into overlapping consistency groups.
func Figure4() (Table, error) {
	out := Table{
		ID:     "E12",
		Title:  "Figure 4: an inconsistent six-server time service",
		Claim:  "there are three sets of consistent servers whose intersections are shown by the shaded areas; it is not apparent which set is the correct one",
		Header: []string{"group", "members", "intersection"},
	}
	if _, ok := interval.IntersectAll(figure4Intervals); ok {
		return Table{}, fmt.Errorf("figure4: service unexpectedly consistent")
	}
	groups := interval.ConsistencyGroups(figure4Intervals)
	for i, g := range groups {
		members := ""
		for j, m := range g.Members {
			if j > 0 {
				members += ","
			}
			members += fmt.Sprintf("S%d", m+1)
		}
		out.Rows = append(out.Rows, []string{
			fi(i + 1), members,
			fmt.Sprintf("[%s, %s]", f(g.Intersection.Lo), f(g.Intersection.Hi)),
		})
	}
	out.Finding = fmt.Sprintf("service inconsistent; %d maximal consistency groups found (S2 shared between two groups: consistency is not transitive)", len(groups))
	if len(groups) != 3 {
		return out, fmt.Errorf("figure4: expected 3 groups, found %d", len(groups))
	}
	return out, nil
}
