package main

import (
	"fmt"
	"io"
	"math/rand/v2"

	"disttime/internal/obs"
	"disttime/internal/service"
)

// The churn demo's cluster: churnN servers over churnDur virtual
// seconds.
const (
	churnN   = 5
	churnDur = 300.0
)

// runChurn runs the membership demo: a churnN-server mesh with dynamic
// membership enabled, subjected to a seeded schedule of rate voluntary
// leave/rejoin cycles per 100 simulated seconds, printing the full
// membership timeline — every roster transition every server observes,
// in virtual-time order.
//
// The schedule is drawn from its own deterministic generator and the
// service is seeded, so the entire output is a pure function of rate and
// seed: two invocations with the same seed are byte-identical, which
// TestRunChurnDeterministic enforces. A FALSE-EVICTION token in the
// timeline (a live server evicted) would mark a detector-bound violation
// and is asserted absent. A non-empty metrics path receives
// the run's metrics snapshot.
func runChurn(rate float64, seed uint64, metrics string, out io.Writer) error {
	specs := make([]service.ServerSpec, churnN)
	for i := range specs {
		// Deterministic mixed drift rates within the claimed bound.
		specs[i] = service.ServerSpec{
			Delta:        2e-4,
			Drift:        (float64(i%5) - 2) * 4e-5,
			InitialError: 0.05,
			SyncEvery:    10,
		}
	}
	svc, err := service.New(service.Config{
		Seed:    seed,
		Servers: specs,
		Members: &service.MemberConfig{GossipEvery: 5},
	})
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if metrics != "" {
		reg = obs.NewRegistry()
		svc.Observe(reg, nil)
	}
	// The roster emits a change for every fresher observation, heartbeat
	// refreshes included; the timeline keeps only material transitions —
	// joins, status changes, and generation bumps (rejoins) — which is
	// still a deterministic function of the run.
	timeline, falseEvictions := 0, 0
	lastGen := make(map[[2]int]uint64)
	svc.AddMemberChange(func(ev service.MemberEvent) {
		key := [2]int{ev.Observer, ev.Subject}
		refresh := ev.From == ev.To && !ev.Joined && !ev.FalseEviction && lastGen[key] == ev.Gen
		lastGen[key] = ev.Gen
		if refresh {
			return
		}
		timeline++
		if ev.FalseEviction {
			falseEvictions++
		}
		fmt.Fprintln(out, ev)
	})

	// The churn schedule: rate cycles per 100 simulated seconds, each a
	// voluntary departure followed by a rejoin 20..60 s later, landing
	// inside the middle of the run so departures settle before the end.
	rng := rand.New(rand.NewPCG(seed, 0x636875726e)) // "churn"
	cycles := int(rate * churnDur / 100)
	if cycles < 1 {
		cycles = 1
	}
	fmt.Fprintf(out, "churn demo: n=%d dur=%gs rate=%g cycles=%d seed=%d\n",
		churnN, churnDur, rate, cycles, seed)
	for k := 0; k < cycles; k++ {
		target := rng.IntN(churnN)
		at := (0.05 + 0.70*rng.Float64()) * churnDur
		down := 20 + 40*rng.Float64()
		fmt.Fprintf(out, "cycle %d: server %d leaves t=%.3f rejoins t=%.3f\n",
			k, target, at, at+down)
		svc.LeaveAt(at, target)
		svc.RejoinAt(at+down, target)
	}
	svc.Run(churnDur)
	fmt.Fprintf(out, "churn run: seed=%d steps=%d timeline=%d false-evictions=%d\n",
		seed, svc.Sim.Steps(), timeline, falseEvictions)
	if err := writeMetrics(metrics, reg); err != nil {
		return err
	}
	if falseEvictions > 0 {
		return fmt.Errorf("churn demo recorded %d false evictions", falseEvictions)
	}
	return nil
}
