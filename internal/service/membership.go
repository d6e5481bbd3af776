package service

import (
	"fmt"
	"math"

	"disttime/internal/hlc"
	"disttime/internal/member"
	"disttime/internal/simnet"
)

// This file is the simulated substrate of the membership protocol. The
// protocol itself — roster, drift-aware failure detector, what a gossip
// tick and a digest merge do, whom to gossip to and to poll — is one
// member.Protocol per node, the same type the UDP peer drives. What is
// here is what only the simulator has: the gossip timers, link
// reachability as the selection filter, the pooled gossip payload with
// its HLC stamp, the equivocation fault, the MemberEvent timeline with
// its FalseEviction verdict, and the metrics. Churn (voluntary
// departure and rejoin) rides the same machinery: a departure is a
// roster entry that gossip carries to the survivors, and a rejoin is a
// fresh incarnation that supersedes whatever the previous life left
// behind, including its own eviction.

// MemberConfig enables and tunes dynamic membership for a service.
type MemberConfig struct {
	// GossipEvery is the gossip/heartbeat period in simulated seconds.
	// Defaults to 5.
	GossipEvery float64
}

// MemberEvent is one membership transition observed by one server, in
// simulated time — the unit of the deterministic membership timeline.
type MemberEvent struct {
	// T is the virtual time of the observation.
	T float64
	// Observer is the server whose roster changed.
	Observer int
	// Subject is the member the change is about.
	Subject int
	// From and To are the statuses bracketing the change (From is zero
	// when the subject was previously unknown to the observer).
	From, To member.Status
	// Gen is the subject's generation carried by the new observation.
	Gen uint64
	// Joined reports that the subject was previously unknown.
	Joined bool
	// FalseEviction reports that To is Evicted while the subject was in
	// fact serving (neither crashed nor departed) — the detector bound
	// was violated or the deadline misconfigured.
	FalseEviction bool
}

// String renders the event as one deterministic timeline token.
func (e MemberEvent) String() string {
	tag := ""
	if e.Joined {
		tag = " join"
	}
	if e.FalseEviction {
		tag += " FALSE-EVICTION"
	}
	return fmt.Sprintf("t=%.3f obs=%d member=%d %s->%s gen=%d%s",
		e.T, e.Observer, e.Subject, e.From, e.To, e.Gen, tag)
}

// gossipMsg is one anti-entropy message: a digest of the sender's
// roster. Payloads travel as pooled pointers, recycled by the receiving
// handler, so steady-state gossip does not allocate per message.
type gossipMsg struct {
	entries []member.Entry[int]
	ts      hlc.Timestamp // sender's hybrid logical clock at send
}

// newGossip draws a gossip payload from the service pool.
func (svc *Service) newGossip() *gossipMsg {
	if k := len(svc.gossipFree); k > 0 {
		g := svc.gossipFree[k-1]
		svc.gossipFree[k-1] = nil
		svc.gossipFree = svc.gossipFree[:k-1]
		g.entries = g.entries[:0]
		return g
	}
	return &gossipMsg{}
}

// putGossip recycles a delivered gossip payload.
func (svc *Service) putGossip(g *gossipMsg) {
	svc.gossipFree = append(svc.gossipFree, g)
}

// MembershipEnabled reports whether the service runs with a dynamic
// roster.
func (svc *Service) MembershipEnabled() bool { return svc.memberCfg != nil }

// AddMemberChange registers an observer invoked on every membership
// transition any server's roster records, chained after any observer
// already installed, as AddSyncDetail does.
func (svc *Service) AddMemberChange(fn func(MemberEvent)) {
	prev := svc.onMember
	if prev == nil {
		svc.onMember = fn
		return
	}
	svc.onMember = func(e MemberEvent) {
		prev(e)
		fn(e)
	}
}

// initMembership builds every node's protocol state and schedules the
// gossip ticks. Called from New when cfg.Members is set.
func (svc *Service) initMembership() error {
	mc := *svc.cfg.Members
	if mc.GossipEvery <= 0 {
		mc.GossipEvery = 5
	}
	svc.memberCfg = &mc
	// The remote drift bound must cover every clock in the service: any
	// member's advertisements may pace any observer's deadline.
	maxDelta := 0.0
	for _, spec := range svc.cfg.Servers {
		maxDelta = math.Max(maxDelta, spec.Delta)
	}
	for i, node := range svc.Nodes {
		r := node.Server.Reading(0)
		p, err := member.NewProtocol(i, 1, member.DetectorConfig{
			Period:      mc.GossipEvery,
			LocalDelta:  svc.cfg.Servers[i].Delta,
			RemoteDelta: maxDelta,
			Xi:          svc.Net.Xi(),
		}, r.C, r.E)
		if err != nil {
			return fmt.Errorf("service: membership detector for server %d: %w", i, err)
		}
		// The owner's topology neighbors are the simulated analogue of
		// the seed addresses a real deployment configures.
		for _, nid := range svc.Net.Neighbors(node.NetID) {
			p.Seed(int(nid))
		}
		node.member = p
	}
	for _, node := range svc.Nodes {
		node := node
		phase := svc.Sim.Rand().Float64() * mc.GossipEvery
		svc.Sim.At(phase, func() {
			node.gossipTick()
			node.stopGossip = svc.Sim.Every(mc.GossipEvery, node.gossipTick)
		})
	}
	return nil
}

// emitMember publishes one roster transition observed by node n.
func (n *Node) emitMember(t float64, ch member.Change[int]) {
	if n.svc.onMember == nil {
		return
	}
	ev := MemberEvent{
		T:        t,
		Observer: n.Server.ID(),
		Subject:  ch.ID,
		From:     ch.From,
		To:       ch.To,
		Gen:      ch.Gen,
		Joined:   ch.Joined,
	}
	if ch.To == member.Evicted && ch.ID >= 0 && ch.ID < len(n.svc.Nodes) {
		subject := n.svc.Nodes[ch.ID]
		ev.FalseEviction = !subject.crashed && !subject.departed
	}
	n.svc.onMember(ev)
}

// gossipSilent reports that node n does not currently participate in
// gossip (crashed or voluntarily departed).
func (n *Node) gossipSilent() bool { return n.crashed || n.departed }

// gossipTick is one gossip round for node n: the protocol's tick on the
// node's own clock and reading, then a digest to the selected members.
func (n *Node) gossipTick() {
	if n.gossipSilent() {
		return
	}
	now := n.svc.Sim.Now()
	local := n.Server.Read(now)
	r := n.Server.Reading(now)
	for _, ch := range n.member.Tick(local, r.C, r.E) {
		n.emitMember(now, ch)
	}
	n.pushDigest()
}

// pushDigest sends one roster digest to each gossip target, exploring
// with the simulation's generator. Only reachable members are eligible
// (a sparse topology relays the rest via gossip), which also keeps every
// target a valid node index; a send that a partition drops anyway is
// lost, as a real datagram would be.
func (n *Node) pushDigest() {
	svc := n.svc
	for _, id := range n.member.GossipTargets(svc.Sim.Rand().IntN, n.reachable) {
		g := svc.newGossip()
		g.entries = n.member.Digest(g.entries)
		g.ts = n.HLCNow(svc.Sim.Now())
		n.equivocateEntry(g.entries, id)
		sent := len(g.entries)
		if !svc.Net.Send(n.NetID, svc.Nodes[id].NetID, g) {
			svc.putGossip(g)
			continue
		}
		if svc.memMetrics != nil {
			svc.memMetrics.sent(sent)
		}
	}
}

// handleGossip merges one incoming digest, credited to the network's
// sender, into node n's protocol state and recycles the payload.
func (n *Node) handleGossip(from simnet.NodeID, g *gossipMsg, now float64) {
	changes := n.member.Merge(int(from), g.entries, n.Server.Read(now), func() (c, e float64) {
		r := n.Server.Reading(now)
		return r.C, r.E
	})
	for _, ch := range changes {
		n.emitMember(now, ch)
	}
	merged := len(g.entries)
	n.svc.putGossip(g)
	if n.svc.memMetrics != nil {
		n.svc.memMetrics.received(merged, n.member.Roster().AliveCount())
	}
}

// reachable reports whether a usable link currently exists from node n
// to member id.
func (n *Node) reachable(id int) bool {
	if id < 0 || id >= len(n.svc.Nodes) {
		return false
	}
	return n.svc.Net.Connected(n.NetID, n.svc.Nodes[id].NetID)
}

// Leave makes server i depart voluntarily: it announces the departure
// through one final gossip push, then stops synchronizing, gossiping,
// and answering requests. Its clock keeps running, so rule MM-1's
// bookkeeping remains valid for a later Rejoin. Leaving a crashed or
// departed server is a no-op. Without membership, Leave degrades to
// Crash (the only departure the static topology can express).
func (svc *Service) Leave(i int) {
	n := svc.Nodes[i]
	if n.member == nil {
		svc.Crash(i)
		return
	}
	if n.gossipSilent() {
		return
	}
	n.emitMember(svc.Sim.Now(), n.member.Leave())
	n.pushDigest() // announce the departure before going silent
	n.departed = true
	n.silence()
}

// Rejoin brings a departed server back as a fresh incarnation: its
// generation bumps, so its advertisement supersedes the departure (or
// any eviction) recorded by the survivors, and its periodic rounds
// resume. Rejoining a serving server is a no-op. Without membership,
// Rejoin degrades to Restart.
func (svc *Service) Rejoin(i int) {
	n := svc.Nodes[i]
	if n.member == nil {
		svc.Restart(i)
		return
	}
	if !n.departed {
		return
	}
	now := svc.Sim.Now()
	n.departed = false
	r := n.Server.Reading(now)
	n.emitMember(now, n.member.Rejoin(r.C, r.E))
	n.revive()
}

// resumeMembership restarts node n's gossip ticks (after Rejoin or
// Restart).
func (n *Node) resumeMembership() {
	if n.member == nil || n.stopGossip != nil {
		return
	}
	n.stopGossip = n.svc.Sim.Every(n.svc.memberCfg.GossipEvery, n.gossipTick)
}

// LeaveAt schedules a voluntary departure of server i at virtual time t.
func (svc *Service) LeaveAt(t float64, i int) {
	svc.Sim.At(t, func() { svc.Leave(i) })
}

// RejoinAt schedules a rejoin of server i at virtual time t.
func (svc *Service) RejoinAt(t float64, i int) {
	svc.Sim.At(t, func() { svc.Rejoin(i) })
}
