package experiments

import (
	"fmt"
	"math"

	"disttime/internal/core"
	"disttime/internal/service"
)

// RecoveryBreakdown (E16) reproduces the closing caveat of Section 3:
// "This recovery algorithm can break down as soon as there is more than
// one incorrect server directly connected to a server. In this case, the
// service can partition into different consistency groups (Figure 4)."
//
// Two faulty servers drift together (both 2% fast with near-perfect
// claimed bounds), so each remains consistent with the other while both
// race away from the correct time. When either finds itself inconsistent
// with the healthy majority, the Section 3 heuristic — reset from "any
// third server" — happily adopts the other faulty server, and the pair
// reinforces each other into a separate consistency group. The Section 5
// consonance machinery, run by a healthy observer, identifies exactly the
// runaway pair, showing why the paper turns to rates for real recovery.
func RecoveryBreakdown() (Table, error) {
	const (
		tau      = 60.0
		duration = 2 * 3600.0
	)
	specs := []service.ServerSpec{
		{Delta: 3e-5, Drift: 1e-5, InitialError: 0.5, SyncEvery: tau, Recovery: true},
		{Delta: 1e-6, Drift: 0.02, InitialError: 0.5, SyncEvery: tau, Recovery: true},   // faulty
		{Delta: 1e-6, Drift: 0.0201, InitialError: 0.5, SyncEvery: tau, Recovery: true}, // faulty twin
		{Delta: 3e-5, Drift: -1e-5, InitialError: 0.5, SyncEvery: tau, Recovery: true},
		{Delta: 3e-5, Drift: 2e-5, InitialError: 0.5, SyncEvery: tau, Recovery: true},
		// A pure observer: polls every round but never resets, so its
		// rate estimates accumulate across the whole run (a server that
		// resets must discard its rate samples at each discontinuity).
		{Delta: 3e-5, Drift: 0, InitialError: 0.5, SyncEvery: tau, Fn: neverReset{}},
	}
	svc, err := service.New(service.Config{
		Seed:    131,
		Delay:   core.Band{Max: 0.02},
		Fn:      core.MM{},
		Servers: specs,
	})
	if err != nil {
		return Table{}, err
	}
	svc.Run(duration)
	s := svc.Snapshot()

	out := Table{
		ID:     "E16",
		Title:  "Recovery breakdown with two co-drifting incorrect servers (Section 3 caveat)",
		Claim:  "recovery can break down with more than one incorrect server directly connected; the service can partition into consistency groups",
		Header: []string{"server", "drift", "C - t (s)", "E (s)", "correct", "recoveries"},
	}
	for i := range specs[:5] {
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("S%d", i+1), f(specs[i].Drift), f(s.Offset[i]), f(s.E[i]),
			fb(math.Abs(s.Offset[i]) <= s.E[i]), fi(svc.Nodes[i].Recoveries),
		})
	}
	out.Rows = append(out.Rows, []string{
		"service", "-", "-", "-",
		fmt.Sprintf("groups=%d", s.Groups), fmt.Sprintf("consistent=%v", s.Consistent),
	})

	// The healthy servers must survive; the faulty pair must have formed
	// its own mutually-consistent (and wrong) group.
	for _, i := range []int{0, 3, 4, 5} {
		if math.Abs(s.Offset[i]) > s.E[i] {
			return out, fmt.Errorf("breakdown: healthy server %d lost correctness", i)
		}
	}
	pairConsistent := math.Abs(s.C[1]-s.C[2]) <= s.E[1]+s.E[2]
	pairWrong := math.Abs(s.Offset[1]) > s.E[1] && math.Abs(s.Offset[2]) > s.E[2]
	if !pairConsistent || !pairWrong {
		return out, fmt.Errorf("breakdown: faulty pair did not form a wrong consistency group (consistent=%v wrong=%v)",
			pairConsistent, pairWrong)
	}
	if s.Groups < 2 {
		return out, fmt.Errorf("breakdown: service did not partition (groups=%d)", s.Groups)
	}

	// Section 5's answer: the observer's rate estimates expose the
	// runaway pair even though the pair is internally consistent.
	observer := svc.Nodes[5]
	flagged := 0
	for j := 0; j < 5; j++ {
		e := observer.Rates.Estimate(j)
		if !e.Valid {
			return out, fmt.Errorf("breakdown: observer has no rate estimate for server %d", j)
		}
		if !e.ConsonantWith(specs[5].Delta, specs[j].Delta) {
			if j != 1 && j != 2 {
				return out, fmt.Errorf("breakdown: healthy server %d flagged dissonant", j)
			}
			flagged++
		}
	}
	out.Finding = fmt.Sprintf(
		"the co-drifting pair recovered into each other (%d+%d recoveries), stayed mutually consistent while ~%0.f s wrong, and split the service into %d groups; the observer's rate check flagged %d/2 of them — the Section 5 motivation",
		svc.Nodes[1].Recoveries, svc.Nodes[2].Recoveries, math.Abs(s.Offset[1]), s.Groups, flagged)
	if flagged != 2 {
		return out, fmt.Errorf("breakdown: consonance check failed to flag the runaway pair")
	}
	return out, nil
}
