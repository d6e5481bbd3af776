package disttime_test

import (
	"fmt"
	"math"

	"disttime"
)

// The intersection of consistent server answers is tighter than any
// single answer (Theorem 6) and still contains the correct time.
func ExampleIntersectAll() {
	answers := []disttime.Interval{
		disttime.FromEstimate(10.000, 0.005),
		disttime.FromEstimate(10.003, 0.004),
		disttime.FromEstimate(9.998, 0.006),
	}
	common, ok := disttime.IntersectAll(answers)
	fmt.Printf("ok=%v C=%.4f E=%.4f\n", ok, common.Midpoint(), common.HalfWidth())
	// Output: ok=true C=10.0015 E=0.0025
}

// Marzullo's algorithm finds the interval the largest number of sources
// agree on, outvoting falsetickers.
func ExampleMarzullo() {
	answers := []disttime.Interval{
		disttime.FromEstimate(10.000, 0.005),
		disttime.FromEstimate(10.003, 0.004),
		disttime.FromEstimate(99.0, 0.001), // falseticker
	}
	best := disttime.Marzullo(answers)
	fmt.Printf("%d of %d agree on [%.4f, %.4f]\n",
		best.Count, len(answers), best.Interval.Lo, best.Interval.Hi)
	// Output: 2 of 3 agree on [9.9990, 10.0050]
}

// A whole simulated time service: five drifting clocks in a full mesh
// synchronizing with algorithm IM every ten seconds, all provably correct
// throughout.
func ExampleNewSimulation() {
	specs := make([]disttime.ServerSpec, 5)
	for i := range specs {
		drift := float64(i-2) * 2e-5
		specs[i] = disttime.ServerSpec{
			Delta:        math.Abs(drift)*1.2 + 1e-6,
			Drift:        drift,
			InitialError: 0.05,
			SyncEvery:    10,
		}
	}
	sim, err := disttime.NewSimulation(disttime.SimulationConfig{
		Seed:    1,
		Delay:   disttime.UniformDelay{Max: 0.01},
		Fn:      disttime.IM{},
		Servers: specs,
	})
	if err != nil {
		panic(err)
	}
	sim.Run(600)
	s := sim.Snapshot()
	fmt.Printf("after %.0fs: all correct=%v, consistent=%v\n", s.T, s.AllCorrect, s.Consistent)
	// Output: after 600s: all correct=true, consistent=true
}

// Interval.Intersect is the common part of two readings' intervals, in
// seconds.
func ExampleInterval_Intersect() {
	a := disttime.FromEstimate(0, 0.100)    // now +/- 100ms
	b := disttime.FromEstimate(0.05, 0.100) // 50ms ahead +/- 100ms
	common, ok := a.Intersect(b)
	fmt.Printf("ok=%v midpoint=%.3f halfwidth=%.3f\n", ok, common.Midpoint(), common.HalfWidth())
	// Output: ok=true midpoint=0.025 halfwidth=0.075
}
