package chaos

import (
	"math"
)

// Runner executes a campaign and returns its verdict. Shrink is
// parameterized over it so harness self-tests can shrink campaigns run
// with an injected bug (RunInjected) exactly like production campaigns.
type Runner func(Campaign) (Verdict, error)

// ShrinkResult reports what shrinking achieved.
type ShrinkResult struct {
	// Campaign is the minimized reproducer.
	Campaign Campaign
	// Verdict is the minimized campaign's verdict (still failing with the
	// same first invariant as the original).
	Verdict Verdict
	// Runs is how many campaign executions the search spent.
	Runs int
}

// shrinkBudget caps the re-runs of one Shrink.
const shrinkBudget = 200

// Shrink minimizes a failing campaign to a smaller reproducer that still
// violates the same invariant as the original's first violation. The
// search is greedy and deterministic:
//
//  1. truncate the schedule to just past the first violation,
//  2. drop faults one at a time, to a fixpoint,
//  3. halve windowed faults' durations while the failure persists,
//  4. bisect the campaign duration to the shortest failing grid point.
//
// Every candidate is a full deterministic re-run, so the result replays
// identically, and shrinkBudget caps how many there are. If the input
// campaign does not fail under run, it is returned unchanged.
func Shrink(c Campaign, run Runner) (ShrinkResult, error) {
	orig, err := run(c)
	if err != nil {
		return ShrinkResult{}, err
	}
	res := ShrinkResult{Campaign: c, Verdict: orig, Runs: 1}
	first, failing := orig.First()
	if !failing {
		return res, nil
	}
	want := first.Invariant

	// fails re-runs a candidate and accepts it when it violates the same
	// invariant first. Errors (malformed candidates) reject the candidate.
	fails := func(cand Campaign) (Verdict, bool) {
		if res.Runs >= shrinkBudget {
			return Verdict{}, false
		}
		res.Runs++
		v, err := run(cand)
		if err != nil || v.OK {
			return v, false
		}
		f, _ := v.First()
		return v, f.Invariant == want
	}
	accept := func(cand Campaign, v Verdict) {
		res.Campaign, res.Verdict = cand, v
	}

	// 1. Truncate to just past the first violation.
	if f, ok := res.Verdict.First(); ok {
		if end := gridUp(f.T + 2*c.Sync); end < res.Campaign.Dur {
			cand := truncated(res.Campaign, end)
			if v, ok := fails(cand); ok {
				accept(cand, v)
			}
		}
	}

	// 2. Drop faults one at a time, to a fixpoint.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(res.Campaign.Faults); i++ {
			cand := res.Campaign
			cand.Faults = dropFault(res.Campaign.Faults, i)
			if v, ok := fails(cand); ok {
				accept(cand, v)
				changed = true
				i--
			}
		}
	}

	// 3. Halve windowed faults' durations (floor: one 5 s grid step).
	for i := range res.Campaign.Faults {
		for res.Campaign.Faults[i].Kind.windowed() && res.Campaign.Faults[i].Dur >= 10 {
			cand := res.Campaign
			cand.Faults = append([]Fault(nil), res.Campaign.Faults...)
			half := math.Max(5, grid(cand.Faults[i].Dur/2))
			if half >= cand.Faults[i].Dur {
				break
			}
			cand.Faults[i].Dur = half
			v, ok := fails(cand)
			if !ok {
				break
			}
			accept(cand, v)
		}
	}

	// 4. Bisect the overall duration down to the shortest failing length.
	lo, hi := 0.0, res.Campaign.Dur
	for hi-lo > 10 && res.Runs < shrinkBudget {
		mid := gridUp((lo + hi) / 2)
		if mid <= lo || mid >= hi {
			break
		}
		cand := truncated(res.Campaign, mid)
		if v, ok := fails(cand); ok {
			accept(cand, v)
			hi = mid
		} else {
			lo = mid
		}
	}
	return res, nil
}

// gridUp snaps x up to the 10-second bisection grid.
func gridUp(x float64) float64 { return math.Ceil(x/10) * 10 }

// dropFault returns faults without element i.
func dropFault(faults []Fault, i int) []Fault {
	out := make([]Fault, 0, len(faults)-1)
	out = append(out, faults[:i]...)
	return append(out, faults[i+1:]...)
}

// truncated shortens the campaign to end, dropping faults that start at
// or after the new end and clipping windows that overhang it.
func truncated(c Campaign, end float64) Campaign {
	out := c
	out.Dur = end
	out.Faults = nil
	for _, f := range c.Faults {
		if f.At >= end {
			continue
		}
		if f.Kind.windowed() && f.At+f.Dur > end {
			f.Dur = end - f.At
		}
		out.Faults = append(out.Faults, f)
	}
	return out
}
