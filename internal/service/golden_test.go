package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/simnet"
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
// them reach every way the service schedules an event: one-shot closures at
// absolute times (first rounds, scheduled crashes and departures),
// closure-free calls after a delay (message deliveries, round closes),
// periodic timers and their stop-and-cancel path (Crash and Leave stop a
// node's sync and gossip timers while a tick is pending), and samples that
// fall exactly on event times. The transaction workload, which schedules
// at absolute times without a closure, is pinned the same way in
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
			want:    "e40276044615fcb2",
		},
		{
			// Unstaggered rounds start at 0, 10, 20, ... and every sample is
			// one of those instants: the requests of the round that starts at
			// a sample time are counted in that sample.
			name: "mm-ring-loss-lockstep",
			cfg: Config{
				Seed: 7, Fn: core.MM{}, Topology: Ring, Loss: 0.2, NoStagger: true,
				Delay:   simnet.Uniform{Min: 0.001, Max: 0.02},
				Servers: correctSpecs(5, 10),
			},
			samples: []float64{10, 20, 100, 600},
			want:    "e3bad548ec40bfa9",
		},
		{
			name: "members-churn",
			cfg:  memberTestConfig(6, 23),
			script: func(svc *Service) {
				svc.LeaveAt(30, 4)
				svc.Sim.At(45, func() { svc.Crash(1) })
				svc.RejoinAt(90, 4)
				svc.Sim.At(120, func() { svc.Restart(1) })
				svc.Sim.At(150, func() { svc.Crash(2) })
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
