// Monotonic: the Section 1.1 technique, served. The synchronization
// rules set a fast server's clock backward at every round, so a client
// reading it can see time run in reverse. Given a SlewRate, each server
// instead absorbs a correction by "temporarily running the monotonic
// clock more slowly", and charges the part not yet absorbed to its
// maximum error E. The served C then never steps back, and every
// interval [C-E, C+E] still contains true time. The example runs the
// same service twice, stepping and slewing, and exits non-zero if the
// slewed run ever serves a smaller C than before or loses correctness.
package main

import (
	"fmt"
	"log"

	"disttime"
)

const (
	tau      = 30.0  // synchronization period (s)
	duration = 600.0 // ten simulated minutes
	every    = 0.01  // the clients read every 10 ms
	slewRate = 0.01  // 10 ms of correction absorbed per clock second
)

func main() {
	fmt.Println("three servers synchronize every 30 s with IM; S0 runs 0.1% fast")
	fmt.Println("and is set back at each round. Clients read every server every 10 ms.")
	fmt.Println("S0's served clock, every minute:")
	fmt.Printf("\n%8s  %15s  %13s  %15s  %13s\n",
		"t (s)", "step: C-t (ms)", "step: E (ms)", "slew: C-t (ms)", "slew: E (ms)")

	// Per discipline, step then slew: the backward steps of a served C
	// the clients saw, whether every sample was AllCorrect, and the C of
	// the last sample.
	step, slew := newService(0), newService(slewRate)
	backward, correct, prev := [2]int{}, [2]bool{true, true}, [2][]float64{}
	for k := 1; k <= int(duration/every); k++ {
		at := float64(k) * every
		for j, sim := range []*disttime.Simulation{step, slew} {
			sim.Run(at)
			s := sim.Snapshot()
			correct[j] = correct[j] && s.AllCorrect
			for i, c := range s.C {
				if prev[j] != nil && c < prev[j][i] {
					backward[j]++
				}
			}
			prev[j] = s.C
		}
		if k%int(60/every) == 0 {
			st, sl := step.Snapshot(), slew.Snapshot()
			fmt.Printf("%8.0f  %15.3f  %13.3f  %15.3f  %13.3f\n",
				at, 1e3*st.Offset[0], 1e3*st.E[0], 1e3*sl.Offset[0], 1e3*sl.E[0])
		}
	}

	fmt.Println()
	for j, name := range []string{"step", "slew"} {
		fmt.Printf("%s: %d backward steps of a served C, every interval correct: %v\n",
			name, backward[j], correct[j])
	}
	if backward[1] != 0 || !correct[1] {
		log.Fatal("the slewed service broke its claim")
	}
}

// newService builds the three-server service; slew 0 steps the clocks.
func newService(slew float64) *disttime.Simulation {
	specs := []disttime.ServerSpec{
		{Delta: 1.2e-3, Drift: 1e-3, InitialError: 0.05, SyncEvery: tau, SlewRate: slew},
		{Delta: 3e-5, Drift: -2e-5, InitialOffset: 0.01, InitialError: 0.05, SyncEvery: tau, SlewRate: slew},
		{Delta: 3e-5, Drift: 1e-5, InitialOffset: -0.01, InitialError: 0.05, SyncEvery: tau, SlewRate: slew},
	}
	sim, err := disttime.NewSimulation(disttime.SimulationConfig{
		Seed:    127,
		Delay:   disttime.UniformDelay{Max: 0.005},
		Fn:      disttime.IM{},
		Servers: specs,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sim
}
