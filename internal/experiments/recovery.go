package experiments

import (
	"fmt"
	"math"

	"disttime/internal/core"
	"disttime/internal/service"
	"disttime/internal/simnet"
)

// Recovery (E9) reproduces the Section 3 experiment: "a network of two
// servers in which one server assumed its maximum drift rate was bounded
// by one second a day and whose actual drift rate was closer to one hour a
// day (about four percent fast). Each time either of the two clocks
// decided to reset, it found itself inconsistent with its neighbor and
// obtained the time from a server on some other network. The main problem
// was that the servers did not check their neighbor very often, so the
// time of the inaccurate clock would be very far off by the time it
// reset."
func Recovery() (Table, error) {
	const (
		day      = 86400.0
		tau      = 600.0
		duration = 6 * 3600.0
	)
	build := func(recovery bool) (*service.Service, error) {
		specs := []service.ServerSpec{
			{Delta: 2.0 / day, Drift: 1.0 / day, InitialError: 0.5, SyncEvery: tau, Recovery: recovery},
			{Delta: 1.0 / day, Drift: 0.04, InitialError: 0.5, SyncEvery: tau, Recovery: recovery},
			{Delta: 2.0 / day, Drift: -1.0 / day, InitialError: 0.5, SyncEvery: tau},
		}
		svc, err := service.New(service.Config{
			Seed:     67,
			Delay:    simnet.Uniform{Max: 0.05},
			Topology: service.Custom,
			Fn:       core.MM{},
			Servers:  specs,
		})
		if err != nil {
			return nil, err
		}
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			if err := svc.Link(pair[0], pair[1]); err != nil {
				return nil, err
			}
		}
		return svc, nil
	}

	out := Table{
		ID:     "E9",
		Title:  "Recovery from an invalid drift bound (Section 3 experiment)",
		Claim:  "on inconsistency the server resets from a third server; between resets the inaccurate clock gets very far off",
		Header: []string{"recovery", "inconsistencies", "recoveries", "max |offset| faulty (s)", "final |offset| faulty (s)", "unchecked drift (s)", "healthy stayed correct"},
	}
	for _, recovery := range []bool{true, false} {
		svc, err := build(recovery)
		if err != nil {
			return Table{}, err
		}
		samples, err := svc.RunSampled(duration, tau/4)
		if err != nil {
			return Table{}, err
		}
		maxFaulty, healthyCorrect := 0.0, true
		for _, s := range samples {
			if math.Abs(s.Offset[1]) > maxFaulty {
				maxFaulty = math.Abs(s.Offset[1])
			}
			if math.Abs(s.Offset[0]) > s.E[0] {
				healthyCorrect = false
			}
		}
		final := samples[len(samples)-1]
		faulty := svc.Nodes[1]
		out.Rows = append(out.Rows, []string{
			fb(recovery), fi(faulty.Server.Inconsistencies()), fi(faulty.Recoveries),
			f(maxFaulty), f(math.Abs(final.Offset[1])), f(0.04 * duration), fb(healthyCorrect),
		})
		if recovery {
			if faulty.Recoveries == 0 {
				return out, fmt.Errorf("recovery: faulty server never recovered")
			}
			if math.Abs(final.Offset[1]) > 0.04*duration/10 {
				return out, fmt.Errorf("recovery: faulty offset %v not contained", final.Offset[1])
			}
		} else if math.Abs(final.Offset[1]) < 100 {
			return out, fmt.Errorf("recovery control: faulty offset %v unexpectedly small", final.Offset[1])
		}
	}
	out.Finding = "with recovery the 4%-fast clock is repeatedly pulled back (large excursions between resets, as the paper reports); without it the clock runs off unchecked"
	return out, nil
}

// Consonance (E13) applies the Section 5 rate machinery: a healthy
// observer estimates each neighbor's separation rate; the neighbor whose
// claimed bound is invalid is exposed as dissonant, and the intersection
// of rate constraints (IM applied to rates) reveals the inconsistency.
func Consonance() (Table, error) {
	const (
		day = 86400.0
		tau = 300.0
	)
	deltas := []float64{2.0 / day, 2.0 / day, 1.0 / day, 3.0 / day}
	drifts := []float64{1.0 / day, -1.5 / day, 0.01, 2.0 / day} // server 2 violates its bound
	specs := make([]service.ServerSpec, len(deltas))
	for i := range specs {
		specs[i] = service.ServerSpec{
			Delta:        deltas[i],
			Drift:        drifts[i],
			InitialError: 0.5,
			// SyncEvery 0: servers 1-3 only answer requests, so nobody
			// resets and the rate estimates accumulate cleanly.
		}
	}
	// Server 0 is the observer: it polls every tau, and its function,
	// neverReset, feeds the rate tracker without touching its clock.
	specs[0].SyncEvery = tau
	specs[0].Fn = neverReset{}

	svc, err := service.New(service.Config{
		Seed:    71,
		Delay:   simnet.Uniform{Max: 0.02},
		Servers: specs,
	})
	if err != nil {
		return Table{}, err
	}
	svc.Run(4 * 3600)

	observer := svc.Nodes[0]
	out := Table{
		ID:     "E13",
		Title:  "Consonance: applying the algorithms to clock rates (Section 5)",
		Claim:  "two clocks are consonant if their rate of separation is within delta_i + delta_j; examining rates determines how to recover",
		Header: []string{"neighbor", "separation rate", "rate uncertainty", "consonant", "own-drift constraint"},
	}
	dissonant := 0
	var estimates []core.RateEstimate
	var neighborDeltas []float64
	for j := 1; j < len(specs); j++ {
		e := observer.Rates.Estimate(j)
		if !e.Valid {
			return Table{}, fmt.Errorf("consonance: no estimate for neighbor %d", j)
		}
		cons := e.ConsonantWith(deltas[0], deltas[j])
		if !cons {
			dissonant++
		}
		constraint := core.OwnDriftConstraint(e, deltas[j])
		estimates = append(estimates, e)
		neighborDeltas = append(neighborDeltas, deltas[j])
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("S%d", j+1), f(e.Rate), f(e.Err), fb(cons),
			fmt.Sprintf("[%s, %s]", f(constraint.Lo), f(constraint.Hi)),
		})
	}
	_, consistentRates := core.EstimateOwnDrift(estimates, neighborDeltas)
	out.Rows = append(out.Rows, []string{
		"intersection", "-", "-", fb(consistentRates), "IM applied to rates",
	})
	out.Finding = fmt.Sprintf(
		"%d of 3 neighbors dissonant (the invalid-bound server exposed); rate constraints mutually inconsistent=%v, proving some claimed bound invalid",
		dissonant, !consistentRates)
	if dissonant == 0 {
		return out, fmt.Errorf("consonance: invalid bound not detected")
	}
	if consistentRates {
		return out, fmt.Errorf("consonance: rate intersection unexpectedly consistent")
	}
	return out, nil
}

// neverReset is a SyncFunc that collects replies (feeding the rate
// tracker) but never touches the clock: a pure observer.
type neverReset struct{}

func (neverReset) Name() string { return "observe" }

func (neverReset) Sync(*core.Server, float64, []core.Reply) core.Result {
	return core.Result{}
}
