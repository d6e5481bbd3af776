package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/obs"
)

// fingerprint runs svc to each sample time in turn and folds what the
// simulator decides into one digest: at every sample the bits of each
// node's <C, E>, the count of executed events and the network's traffic
// counters (sent, delivered, lost, partitioned, no link). Sampling mid-run is deliberate: which events a Run(t) executes
// when some land exactly on t is part of what is pinned.
func fingerprint(svc *Service, samples ...float64) string {
	reg := obs.NewRegistry()
	svc.Net.Observe(reg)
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range samples {
		svc.Run(t)
		for _, n := range svc.Nodes {
			r := n.Server.Reading(t)
			mix(math.Float64bits(r.C))
			mix(math.Float64bits(r.E))
		}
		mix(svc.Sim.Steps())
		for _, kind := range []string{"sent", "delivered", "lost", "partitioned", "nolink"} {
			mix(reg.Counter("simnet_messages_" + kind + "_total").Value())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenFingerprints pins the bytes of three seeded runs that between
// them reach every way the service schedules an event: events at absolute
// times (first ticks, scheduled departures and rejoins, and the
// scheduled crashes this test files through the call table), events
// after a delay (message deliveries, round closes), self-re-arming ticks
// and their stale path (Crash and Leave start a new incarnation while a
// sync or gossip tick of the old one is pending, which is dropped when
// it fires), and samples that fall exactly on event times. The
// transaction workload's events are pinned the same way in
// internal/txn. The digests were taken while the simulator still ran on
// its own binary heap of pooled events; a digest that moves means the
// order, the time or the count of executed events changed, which is a
// change of behaviour to justify and re-pin, never a refactoring.
func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		script  func(*Service)
		samples []float64
		want    string
	}{
		{
			name:    "im-mesh",
			cfg:     Config{Seed: 42, Fn: core.IM{}, Servers: correctSpecs(6, 10)},
			samples: []float64{7.5, 60, 300, 900},
			want:    "073b87d5ae377cc0",
		},
		{
			// Unstaggered rounds start at 0, 10, 20, ... and every sample is
			// one of those instants: the requests of the round that starts at
			// a sample time are counted in that sample.
			name: "mm-ring-loss-lockstep",
			cfg: Config{
				Seed: 7, Fn: core.MM{}, Topology: Ring, Loss: 0.2, noStagger: true,
				Delay:   core.Band{Min: 0.001, Max: 0.02},
				Servers: correctSpecs(5, 10),
			},
			samples: []float64{10, 20, 100, 600},
			want:    "c91e03ee5023988f",
		},
		{
			name: "members-churn",
			cfg:  memberTestConfig(6, 23),
			script: func(svc *Service) {
				svc.LeaveAt(30, 4)
				at(svc, 45, func() { svc.Crash(1) })
				svc.RejoinAt(90, 4)
				at(svc, 120, func() { svc.Restart(1) })
				at(svc, 150, func() { svc.Crash(2) })
				svc.LeaveAt(150, 3)
			},
			samples: []float64{30, 45, 100, 150, 400},
			want:    "194e26f42bde4565",
		},
	} {
		svc, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.script != nil {
			tc.script(svc)
		}
		if got := fingerprint(svc, tc.samples...); got != tc.want {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
