package obs

import (
	"cmp"

	"disttime/internal/member"
)

// MemberMetrics is the membership metrics sink: the one code that turns
// membership into metrics, on either substrate. It is fed what
// member.Protocol already returns, the transitions of Tick, Merge, Leave
// and Rejoin, and each digest's entry count as it is sent and as it is
// merged. Its handles are resolved once (NewMemberMetrics), so no call
// does a registry lookup or allocates; the zero value is inert, as every
// handle is nil-safe.
type MemberMetrics[ID cmp.Ordered] struct {
	msgs      *Counter      // <subsystem>_member_gossip_messages_total: digests the transport accepted
	sent      *LogHistogram // <subsystem>_member_gossip_entries_sent: entries per digest sent
	received  *LogHistogram // <subsystem>_member_gossip_entries_received: entries per digest merged
	alive     *Gauge        // <subsystem>_member_alive_servers: AliveCount after a tick or merge
	known     *Gauge        // <subsystem>_member_known_servers: Len after a tick or merge
	evictions *Counter      // <subsystem>_member_evictions_total: the owner's own detector verdicts
	churn     *Counter      // <subsystem>_member_churn_events_total: the owner's own transitions
}

// NewMemberMetrics resolves the sink's handles in reg under subsystem's
// prefix; a nil reg gives the inert zero value.
func NewMemberMetrics[ID cmp.Ordered](reg *Registry, subsystem string) MemberMetrics[ID] {
	if reg == nil {
		return MemberMetrics[ID]{}
	}
	p := subsystem + "_member_"
	return MemberMetrics[ID]{
		msgs:      reg.Counter(p + "gossip_messages_total"),
		sent:      reg.LogHistogram(p + "gossip_entries_sent"),
		received:  reg.LogHistogram(p + "gossip_entries_received"),
		alive:     reg.Gauge(p + "alive_servers"),
		known:     reg.Gauge(p + "known_servers"),
		evictions: reg.Counter(p + "evictions_total"),
		churn:     reg.Counter(p + "churn_events_total"),
	}
}

// Sent records one digest of n entries that the transport accepted.
func (m *MemberMetrics[ID]) Sent(n int) {
	m.msgs.Inc()
	m.sent.Observe(float64(n))
}

// Tick records the transitions one Protocol.Tick returned, every one an
// accusation by the owner's own detector, and the roster after it. An
// accusation to Evicted is a verdict; evictions learned through gossip
// come from Merge and are not counted.
func (m *MemberMetrics[ID]) Tick(changes []member.Change[ID], r *member.Roster[ID]) {
	for _, ch := range changes {
		if ch.To == member.Evicted {
			m.evictions.Inc()
		}
	}
	m.roster(r)
}

// Merge records one merged digest of n entries, the transitions
// Protocol.Merge returned and the roster after it. Merge's only own
// transition to Alive is the rejoin that answers an adopted accusation,
// a churn event.
func (m *MemberMetrics[ID]) Merge(n int, changes []member.Change[ID], r *member.Roster[ID]) {
	m.received.Observe(float64(n))
	for _, ch := range changes {
		if ch.ID == r.Self() && ch.To == member.Alive {
			m.churn.Inc()
		}
	}
	m.roster(r)
}

// Own records one of the owner's own transitions, as Protocol.Leave or
// Protocol.Rejoin returned it: a departure, a rejoin or a restart.
func (m *MemberMetrics[ID]) Own(member.Change[ID]) { m.churn.Inc() }

// roster sets the roster gauges; an inert sink skips the count.
func (m *MemberMetrics[ID]) roster(r *member.Roster[ID]) {
	if m.alive == nil {
		return
	}
	m.alive.Set(float64(r.AliveCount()))
	m.known.Set(float64(r.Len()))
}
