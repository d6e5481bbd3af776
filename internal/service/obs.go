package service

import (
	"math"

	"disttime/internal/core"
	"disttime/internal/member"
	"disttime/internal/obs"
)

// This file wires the observability layer through the service: every
// synchronization pass emits a sync-round span through the existing
// AddSyncDetail seam and bumps the round counters and error-bound
// histograms the paper's Section 4 evaluation reports distributions of,
// and the rate discipline's fallbacks and aging rates.
// Attaching observation never changes what the service does — the hook
// reads the pass record core.Node.Sync already returns and schedules
// no simulator events, so an observed run and an unobserved run execute
// the same trajectory (same Steps count, same clocks).

// ruleName translates a synchronization function's name into the
// paper's rule numbering for spans and traces.
func ruleName(fn string) string {
	switch fn {
	case "MM":
		return "MM-2"
	case "IM":
		return "IM-2"
	default:
		return fn
	}
}

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

// syncMetrics holds the resolved metric handles for the per-pass sink,
// so the hook performs no registry lookups (allocation-free hot path).
type syncMetrics struct {
	rounds     *obs.Counter
	resets     *obs.Counter
	recoveries *obs.Counter
	replies    *obs.Counter
	rejected   *obs.Counter
	fallbacks  *obs.Counter
	errBefore  *obs.LogHistogram
	errAfter   *obs.LogHistogram
	adjust     *obs.LogHistogram
	aging      *obs.LogHistogram
}

// Observe attaches the registry and tracer to the service: counters and
// histograms for every synchronization pass, plus one SyncSpan per pass
// through tr (nil disables tracing; nil reg disables metrics). It chains
// after any observer already installed with AddSyncDetail, and
// also wires the simulator's event counters and the network's traffic
// counters and delay histogram into reg.
func (svc *Service) Observe(reg *obs.Registry, tr *obs.Tracer) {
	var m syncMetrics
	if reg != nil {
		m = syncMetrics{
			rounds:     reg.Counter("service_sync_rounds_total"),
			resets:     reg.Counter("service_resets_total"),
			recoveries: reg.Counter("service_recoveries_total"),
			replies:    reg.Counter("service_replies_total"),
			rejected:   reg.Counter("service_rejected_replies_total"),
			fallbacks:  reg.Counter("service_rate_fallbacks_total"),
			errBefore:  reg.LogHistogram("service_error_before_seconds"),
			errAfter:   reg.LogHistogram("service_error_after_seconds"),
			adjust:     reg.LogHistogram("service_adjustment_seconds"),
			aging:      reg.LogHistogram("service_aging_rate"),
		}
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
		m.rounds.Inc()
		m.replies.Add(uint64(p.Replies))
		m.rejected.Add(uint64(len(p.Result.Inconsistent)))
		m.resets.Add(uint64(p.Sets))
		if p.Recovered {
			m.recoveries.Inc()
		}
		if p.Fallback {
			m.fallbacks.Inc()
		}
		m.errBefore.Observe(p.Before.E)
		m.errAfter.Observe(p.After.E)
		m.adjust.Observe(math.Abs(p.After.C - p.Before.C))
		m.aging.Observe(p.Rate.Age)
		tr.Emit(obs.SyncSpan{
			T:         p.T,
			Node:      p.Node,
			Rule:      ruleName(p.Fn),
			Replies:   p.Replies,
			Accepted:  p.Result.Accepted,
			Rejected:  p.Result.Inconsistent,
			Reset:     p.Result.Reset,
			Recovered: p.Recovered,
			BeforeC:   p.Before.C,
			BeforeE:   p.Before.E,
			AfterC:    p.After.C,
			AfterE:    p.After.E,
			Steered:   p.Rate.Steered,
			Fallback:  p.Fallback,
			Centre:    p.Rate.Centre,
			Age:       p.Rate.Age,
		})
	})
}
