package service

import (
	"disttime/internal/core"
	"disttime/internal/obs"
)

// This file wires the observability layer through the service: every
// synchronization pass reaches obs.PassMetrics, the per-pass sink the
// real syncer feeds too, under the "service" prefix (round and reset
// counters, the error-bound and adjustment histograms the paper's
// Section 4 evaluation reports distributions of, and the rate
// discipline's fallbacks and aging rates), and the tracer as one span,
// both through the AddSyncDetail seam. With membership, every node's
// protocol feeds obs.MemberMetrics, the membership sink the UDP peer
// feeds too, and its own false eviction verdicts a counter only the
// simulator can keep. Attaching observation never changes what the
// service does — the hooks read what core.Node.Sync and member.Protocol
// already return and schedule no simulator events, so an observed run
// and an unobserved run execute the same trajectory (same Steps count,
// same clocks).

// Observe attaches the registry and tracer to the service: counters and
// histograms for every synchronization pass, plus one span per pass
// through tr (nil disables tracing; nil reg disables metrics). It chains
// after any observer already installed with AddSyncDetail, and
// also wires the simulator's event counters, the network's traffic
// counters and delay histogram and, with membership, the membership
// sink into reg.
func (svc *Service) Observe(reg *obs.Registry, tr *obs.Tracer) {
	m := obs.NewPassMetrics(reg, "service")
	if reg != nil {
		svc.Sim.Observe(reg)
		svc.Net.Observe(reg)
		if svc.MembershipEnabled() {
			svc.members = obs.NewMemberMetrics[int](reg, "service")
			svc.falseEvictions = reg.Counter("service_member_false_evictions_total")
		}
	}
	if reg == nil && tr == nil {
		return
	}
	svc.AddSyncDetail(func(p core.Pass) {
		m.Observe(p)
		tr.Emit(p)
	})
}
