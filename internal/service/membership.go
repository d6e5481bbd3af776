package service

import (
	"fmt"
	"math"

	"disttime/internal/hlc"
	"disttime/internal/member"
	"disttime/internal/simnet"
)

// This file wires the internal/member subsystem into the simulated
// service: each node keeps a roster of the servers it has heard of,
// gossips roster digests carrying its advertised <C, E> quality, runs a
// drift-aware failure detector over gossip freshness, and — when
// membership is enabled — polls the K live members with the smallest
// advertised maximum error instead of broadcasting to the whole
// topology. Churn (voluntary departure and rejoin) rides the same
// machinery: a departure is a roster entry that gossip carries to the
// survivors, and a rejoin is a fresh incarnation that supersedes
// whatever the previous life left behind, including its own eviction.

// MemberConfig enables and tunes dynamic membership for a service.
type MemberConfig struct {
	// GossipEvery is the gossip/heartbeat period in simulated seconds.
	// Defaults to 5.
	GossipEvery float64
	// Misses is how many consecutive gossip periods a member may stay
	// silent before suspicion; defaults to 3 (member.DetectorConfig).
	Misses int
	// DigestMax caps the entries per gossip message; defaults to 8.
	DigestMax int
	// Fanout is how many members each gossip tick addresses (quality
	// ranked, plus the exploration slot); defaults to 2.
	Fanout int
	// K is how many quality-ranked live members a sync round polls;
	// defaults to 3. The exploration slot is always added on top.
	K int
	// Broadcast keeps sync rounds on topology-wide broadcast instead of
	// roster-driven selection (membership becomes observational only).
	Broadcast bool
}

// withDefaults fills the zero fields.
func (c MemberConfig) withDefaults() MemberConfig {
	if c.GossipEvery <= 0 {
		c.GossipEvery = 5
	}
	if c.DigestMax <= 0 {
		c.DigestMax = 8
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.K <= 0 {
		c.K = 3
	}
	return c
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

// Roster returns server i's membership view, or nil when membership is
// disabled.
func (svc *Service) Roster(i int) *member.Roster[int] { return svc.Nodes[i].roster }

// OnMemberChange registers an observer invoked on every membership
// transition any server's roster records. A nil observer removes the
// hook (and any observers chained with AddMemberChange).
func (svc *Service) OnMemberChange(fn func(MemberEvent)) { svc.onMember = fn }

// AddMemberChange chains fn after any currently installed membership
// observer, mirroring AddSyncDetail.
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

// initMembership builds every node's roster and detector and schedules
// the gossip ticks. Called from New when cfg.Members is set.
func (svc *Service) initMembership() error {
	mc := svc.cfg.Members.withDefaults()
	svc.memberCfg = &mc
	// The remote drift bound must cover every clock in the service: any
	// member's advertisements may pace any observer's deadline.
	maxDelta := 0.0
	for _, spec := range svc.cfg.Servers {
		maxDelta = math.Max(maxDelta, spec.Delta)
	}
	for i, node := range svc.Nodes {
		spec := svc.cfg.Servers[i]
		det, err := member.NewDetector[int](member.DetectorConfig{
			Period:      mc.GossipEvery,
			Misses:      mc.Misses,
			LocalDelta:  spec.Delta,
			RemoteDelta: maxDelta,
			Xi:          svc.Net.Xi(),
		})
		if err != nil {
			return fmt.Errorf("service: membership detector for server %d: %w", i, err)
		}
		r := node.Server.Reading(0)
		node.roster = member.New(i, 1, spec.Delta)
		node.roster.Advertise(r.C, r.E)
		node.detector = det
	}
	// Bootstrap: gossip targets come from the roster, so an empty roster
	// would never gossip. Seed each roster with the owner's topology
	// neighbors as generation-zero entries of unknown (infinite) quality
	// — the simulated analogue of the seed addresses a real deployment
	// configures. A seed's first real advertisement (generation one)
	// supersedes the placeholder; seeds are not detector-tracked until
	// actually heard, so a dead seed is never falsely "evicted".
	for _, node := range svc.Nodes {
		for _, nid := range svc.Net.Neighbors(node.NetID) {
			node.roster.Upsert(member.Entry[int]{
				ID:     int(nid),
				Status: member.Alive,
				E:      math.Inf(1),
			})
		}
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
	if ch.To == member.Evicted && ch.ID != n.Server.ID() {
		n.Evictions++
	}
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

// gossipTick is one gossip round for node n: refresh the owner's
// advertisement, turn silence into verdicts, and push a roster digest
// to the selected members.
func (n *Node) gossipTick() {
	if n.gossipSilent() {
		return
	}
	now := n.svc.Sim.Now()
	local := n.Server.Read(now)
	r := n.Server.Reading(now)
	n.roster.Advertise(r.C, r.E)
	for _, v := range n.detector.Check(local) {
		if ch, changed := n.roster.Accuse(v.ID, v.Status); changed {
			n.emitMember(now, ch)
			if v.Status == member.Evicted {
				n.detector.Forget(v.ID)
			}
		}
	}
	n.pushDigest()
}

// pushDigest sends one roster digest to each selected member: the
// Fanout members with the smallest advertised error plus the seeded
// exploration slot. Sends to unreachable members (partitioned or not
// topology neighbors) are dropped by the network, as real datagrams
// would be.
func (n *Node) pushDigest() {
	svc := n.svc
	mc := svc.memberCfg
	targets := member.Select(n.roster, member.SelectConfig[int]{
		K:        mc.Fanout,
		Explore:  svc.Sim.Rand().IntN,
		Eligible: n.reachable,
	})
	for _, id := range targets {
		if id < 0 || id >= len(svc.Nodes) {
			continue
		}
		g := svc.newGossip()
		g.entries = n.roster.Digest(g.entries, mc.DigestMax)
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

// handleGossip merges one incoming digest into node n's roster and
// refreshes the failure detector. The sender is direct evidence; any
// entry strictly fresher than what the roster knew is indirect evidence
// that its member advertised recently, which is what keeps sparse
// topologies (where most members are never heard directly) from
// evicting live servers.
func (n *Node) handleGossip(from simnet.NodeID, g *gossipMsg, now float64) {
	local := n.Server.Read(now)
	n.detector.Observe(int(from), local)
	self := n.Server.ID()
	for _, e := range g.entries {
		ch, changed := n.roster.Upsert(e)
		if !changed {
			continue
		}
		if e.ID == self {
			// A fresher claim about the owner won the merge: someone
			// evicted or suspected this very server. Rejoin with a new
			// incarnation; the next gossip tick spreads it.
			n.emitMember(now, ch)
			if st := n.roster.Self().Status; st == member.Evicted || st == member.Suspect {
				r := n.Server.Reading(now)
				reborn := n.roster.Rejoin(r.C, r.E)
				n.emitMember(now, member.Change[int]{
					ID: self, From: st, To: reborn.Status, Gen: reborn.Gen,
				})
			}
			continue
		}
		switch ch.To {
		case member.Alive:
			n.detector.Observe(e.ID, local)
		case member.Left, member.Evicted:
			n.detector.Forget(e.ID)
		}
		n.emitMember(now, ch)
	}
	merged := len(g.entries)
	n.svc.putGossip(g)
	if n.svc.memMetrics != nil {
		n.svc.memMetrics.received(merged, n.roster.AliveCount())
	}
}

// reachable reports whether a usable link currently exists from node n
// to member id: selection only considers members the network can
// actually deliver to (a sparse topology relays the rest via gossip).
func (n *Node) reachable(id int) bool {
	if id < 0 || id >= len(n.svc.Nodes) {
		return false
	}
	return n.svc.Net.Connected(n.NetID, n.svc.Nodes[id].NetID)
}

// pollTargets returns the servers a sync round should poll when
// membership drives selection: the K live members with the smallest
// advertised maximum error plus the exploration slot.
func (n *Node) pollTargets() []int {
	return member.Select(n.roster, member.SelectConfig[int]{
		K:        n.svc.memberCfg.K,
		Explore:  n.svc.Sim.Rand().IntN,
		Eligible: n.reachable,
	})
}

// Leave makes server i depart voluntarily: it announces the departure
// through one final gossip push, then stops synchronizing, gossiping,
// and answering requests. Its clock keeps running, so rule MM-1's
// bookkeeping remains valid for a later Rejoin. Leaving a crashed or
// departed server is a no-op. Without membership, Leave degrades to
// Crash (the only departure the static topology can express).
func (svc *Service) Leave(i int) {
	n := svc.Nodes[i]
	if n.roster == nil {
		svc.Crash(i)
		return
	}
	if n.gossipSilent() {
		return
	}
	now := svc.Sim.Now()
	left := n.roster.Leave()
	n.emitMember(now, member.Change[int]{
		ID: i, From: member.Alive, To: left.Status, Gen: left.Gen,
	})
	n.pushDigest() // announce the departure before going silent
	n.departed = true
	n.collect = nil
	n.crashSeq = n.reqSeq
	if n.stopSync != nil {
		n.stopSync()
		n.stopSync = nil
	}
	if n.stopGossip != nil {
		n.stopGossip()
		n.stopGossip = nil
	}
	svc.Net.SetHandler(n.NetID, nil)
}

// Rejoin brings a departed server back as a fresh incarnation: its
// generation bumps, so its advertisement supersedes the departure (or
// any eviction) recorded by the survivors, and its periodic rounds
// resume. Rejoining a serving server is a no-op. Without membership,
// Rejoin degrades to Restart.
func (svc *Service) Rejoin(i int) {
	n := svc.Nodes[i]
	if n.roster == nil {
		svc.Restart(i)
		return
	}
	if !n.departed {
		return
	}
	now := svc.Sim.Now()
	n.departed = false
	r := n.Server.Reading(now)
	reborn := n.roster.Rejoin(r.C, r.E)
	n.emitMember(now, member.Change[int]{
		ID: i, From: member.Left, To: reborn.Status, Gen: reborn.Gen,
	})
	svc.Net.SetHandler(n.NetID, n.handle)
	n.resumeMembership()
	if period := n.Spec.SyncEvery; period > 0 && n.stopSync == nil {
		n.stopSync = svc.Sim.Every(period, n.startRound)
	}
	n.pushDigest() // announce the rejoin immediately
}

// resumeMembership restarts node n's gossip ticks (after Rejoin or
// Restart).
func (n *Node) resumeMembership() {
	if n.roster == nil || n.stopGossip != nil {
		return
	}
	n.stopGossip = n.svc.Sim.Every(n.svc.memberCfg.GossipEvery, n.gossipTick)
}

// Departed reports whether server i has voluntarily left.
func (svc *Service) Departed(i int) bool { return svc.Nodes[i].departed }

// LeaveAt schedules a voluntary departure of server i at virtual time t.
func (svc *Service) LeaveAt(t float64, i int) {
	svc.Sim.At(t, func() { svc.Leave(i) })
}

// RejoinAt schedules a rejoin of server i at virtual time t.
func (svc *Service) RejoinAt(t float64, i int) {
	svc.Sim.At(t, func() { svc.Rejoin(i) })
}
