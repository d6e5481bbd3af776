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
// its HLC stamp, the equivocation fault, the false-eviction count, and
// what feeds obs.MemberMetrics, the membership sink the UDP peer feeds
// too. Churn (voluntary
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
	for i, node := range svc.Nodes {
		phase := svc.Sim.Rand().Float64() * mc.GossipEvery
		svc.Sim.At(phase, svc.gossip, uint32(i), node.inc)
	}
	return nil
}

// serving reports whether member id is a server that is in fact serving:
// neither crashed nor departed. An eviction of one is false.
func (svc *Service) serving(id int) bool {
	return id >= 0 && id < len(svc.Nodes) && !svc.Nodes[id].gossipSilent()
}

// gossipSilent reports that node n does not currently participate in
// gossip (crashed or voluntarily departed).
func (n *Node) gossipSilent() bool { return n.crashed || n.departed }

// gossipTick is node i's gossip tick under incarnation inc: the
// protocol's tick on the node's own clock and reading, a digest to the
// selected members, and the next tick one period on. A tick its node has
// outlived is dropped.
func (svc *Service) gossipTick(i, inc uint32) bool {
	n := svc.Nodes[i]
	if inc != n.inc {
		return false
	}
	now := svc.Sim.Now()
	local := n.Server.Read(now)
	r := n.Server.Reading(now)
	changes := n.member.Tick(local, r.C, r.E)
	for _, ch := range changes {
		if ch.To == member.Evicted && svc.serving(ch.ID) {
			svc.falseEvictions.Inc()
		}
	}
	svc.members.Tick(changes, n.member.Roster())
	n.pushDigest()
	svc.Sim.After(svc.memberCfg.GossipEvery, svc.gossip, i, inc)
	return true
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
		svc.members.Sent(sent)
	}
}

// handleGossip merges one incoming digest, credited to the network's
// sender, into node n's protocol state and recycles the payload.
func (n *Node) handleGossip(from simnet.NodeID, g *gossipMsg, now float64) {
	changes := n.member.Merge(int(from), g.entries, n.Server.Read(now), func() (c, e float64) {
		r := n.Server.Reading(now)
		return r.C, r.E
	})
	n.svc.members.Merge(len(g.entries), changes, n.member.Roster())
	n.svc.putGossip(g)
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
	svc.members.Own(n.member.Leave())
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
	n.departed = false
	r := n.Server.Reading(svc.Sim.Now())
	svc.members.Own(n.member.Rejoin(r.C, r.E))
	n.revive()
}
