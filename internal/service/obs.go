package service

import (
	"disttime/internal/core"
	"disttime/internal/member"
	"disttime/internal/obs"
)

// This file wires the observability layer through the service: every
// synchronization pass reaches obs.PassMetrics, the per-pass sink the
// real syncer feeds too, under the "service" prefix (round and reset
// counters, the error-bound and adjustment histograms the paper's
// Section 4 evaluation reports distributions of, and the rate
// discipline's fallbacks and aging rates), and the tracer as one span,
// both through the AddSyncDetail seam. Attaching observation never
// changes what the service does — the hook reads the pass record
// core.Node.Sync already returns and schedules no simulator events, so
// an observed run and an unobserved run execute the same trajectory
// (same Steps count, same clocks).

// memberMetrics holds the resolved metric handles for the membership
// sink: gossip traffic histograms, the roster-size gauge, and the
// eviction counters (including the false evictions the detector's
// soundness bound promises never happen).
type memberMetrics struct {
	msgs        *obs.Counter
	entriesSent *obs.LogHistogram
	entriesRecv *obs.LogHistogram
	alive       *obs.Gauge
	evictions   *obs.Counter
	falseEvicts *obs.Counter
	churn       *obs.Counter
}

// sent records one outgoing gossip message carrying n roster entries.
func (m *memberMetrics) sent(n int) {
	m.msgs.Inc()
	m.entriesSent.Observe(float64(n))
}

// received records one merged gossip message of n entries and the
// receiver's resulting alive count (the membership-size gauge tracks
// the most recent merge anywhere in the service; under convergence all
// rosters agree, so any receiver is representative).
func (m *memberMetrics) received(n, aliveCount int) {
	m.entriesRecv.Observe(float64(n))
	m.alive.Set(float64(aliveCount))
}

// Observe attaches the registry and tracer to the service: counters and
// histograms for every synchronization pass, plus one span per pass
// through tr (nil disables tracing; nil reg disables metrics). It chains
// after any observer already installed with AddSyncDetail, and
// also wires the simulator's event counters and the network's traffic
// counters and delay histogram into reg.
func (svc *Service) Observe(reg *obs.Registry, tr *obs.Tracer) {
	m := obs.NewPassMetrics(reg, "service")
	if reg != nil {
		svc.Sim.Observe(reg)
		svc.Net.Observe(reg)
		if svc.MembershipEnabled() {
			svc.memMetrics = &memberMetrics{
				msgs:        reg.Counter("member_gossip_messages_total"),
				entriesSent: reg.LogHistogram("member_gossip_entries_sent"),
				entriesRecv: reg.LogHistogram("member_gossip_entries_received"),
				alive:       reg.Gauge("member_alive_servers"),
				evictions:   reg.Counter("member_evictions_total"),
				falseEvicts: reg.Counter("member_false_evictions_total"),
				churn:       reg.Counter("member_churn_events_total"),
			}
			svc.memMetrics.alive.Set(float64(len(svc.Nodes)))
			mm := svc.memMetrics
			svc.AddMemberChange(func(e MemberEvent) {
				if e.To == member.Evicted && e.Subject != e.Observer {
					mm.evictions.Inc()
					if e.FalseEviction {
						mm.falseEvicts.Inc()
					}
				}
				if e.Subject == e.Observer {
					mm.churn.Inc() // self transitions: leave, rejoin, restart
				}
			})
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
