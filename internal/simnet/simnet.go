// Package simnet simulates the communication substrate the paper assumes:
// servers exchange time requests and replies over links whose delays are
// nondeterministic but bounded. The paper calls the round-trip bound xi and
// assumes a zero minimum delay; both are configurable here (the paper notes
// the algorithms "can easily be extended to take into account nonzero
// minimum message delay times").
//
// The package provides point-to-point links with per-link delay bands and
// loss probability, partitions, and topology builders ranging from the full
// mesh of the theorems to a multi-network internet in the style of the
// Xerox Research Internet the authors experimented on.
package simnet

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/sim"
)

// NodeID identifies a node within a Network.
type NodeID int

// Message is a delivered payload. SentAt is the virtual time the message
// left the sender, and Band the one-way delay band of the link it crossed
// as it was then: the band its delay was drawn in, which the servers
// credit (core.Reply's Band). An asymmetric link's band is the hull of
// its two directions, and a zero-delay link has none, Max 0.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
	SentAt  float64
	Band    core.Band
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// Uniform is core.Band under the name cmd/bench spells; every other
// caller names core.Band.
type Uniform = core.Band

// LinkConfig describes one directionless link.
type LinkConfig struct {
	// Delay is the one-way delay band, each message's delay drawn
	// uniformly from it. Its Max is the link's delay bound: the paper's
	// xi (the round-trip bound) for a link is twice it.
	Delay core.Band
	// ReverseDelay, when non-nil, is the band of messages from the
	// higher-numbered to the lower-numbered endpoint, making the link
	// asymmetric. The paper distinguishes the request delay sigma from
	// the reply delay rho; an asymmetric link gives them different
	// distributions while the requester can still only measure their sum.
	ReverseDelay *core.Band
	// Loss is the probability in [0, 1) that a message on this link is
	// silently dropped.
	Loss float64
}

// delayFor picks the delay band for a message travelling from -> to.
func (cfg LinkConfig) delayFor(from, to NodeID) core.Band {
	if cfg.ReverseDelay != nil && from > to {
		return *cfg.ReverseDelay
	}
	return cfg.Delay
}

// band returns the band of the link's two directions together, their
// hull: none (Max 0) on a zero-delay link, since a checked band with a
// zero Max is [0, 0].
func (cfg LinkConfig) band() core.Band {
	b := cfg.Delay
	if r := cfg.ReverseDelay; r != nil {
		b = core.Band{Min: min(b.Min, r.Min), Max: max(b.Max, r.Max)}
	}
	return b
}

// edge is one end of a link: the neighbor it leads to and the link's
// configuration, which the other end's edge repeats, and its band
// (LinkConfig.band), kept so that a send stamps it and MaxOneWayDelay
// reads its upper edge.
type edge struct {
	to   NodeID
	cfg  LinkConfig
	band core.Band
}

// Network is a simulated message network bound to a sim.Simulator.
type Network struct {
	sim      *sim.Simulator
	deliver  sim.Kind // a message's arrival, its tag indexing inFlight
	rng      *rand.Rand
	handlers []Handler
	group    []int     // partition group per node; -1 = default group
	adj      [][]edge  // the topology: each node's links, sorted by neighbor
	inFlight []Message // messages on their way, reused by slot
	free     []uint32  // slots of inFlight no pending delivery holds

	// maxDelay is MaxOneWayDelay's answer, kept while maxDelayOK: every
	// sync round asks for xi, and only Connect changes it.
	maxDelay   float64
	maxDelayOK bool

	// Optional observability handles (nil until Observe); the metric
	// methods are nil-safe, so the hot paths bump them unconditionally.
	obsSent        *obs.Counter
	obsDelivered   *obs.Counter
	obsLost        *obs.Counter
	obsPartitioned *obs.Counter
	obsNoLink      *obs.Counter
	obsDelay       *obs.LogHistogram
}

// Observe registers the network's traffic counters and one-way delay
// histogram in reg. The delay histogram records every sampled link
// delay (messages that are sent, not lost).
// Attaching a registry never perturbs the simulation: the instrumented
// paths draw no extra randomness and schedule no extra events.
func (n *Network) Observe(reg *obs.Registry) {
	n.obsSent = reg.Counter("simnet_messages_sent_total")
	n.obsDelivered = reg.Counter("simnet_messages_delivered_total")
	n.obsLost = reg.Counter("simnet_messages_lost_total")
	n.obsPartitioned = reg.Counter("simnet_messages_partitioned_total")
	n.obsNoLink = reg.Counter("simnet_messages_nolink_total")
	n.obsDelay = reg.LogHistogram("simnet_delay_seconds")
}

// arrive hands in-flight message i to its destination handler. The slot
// is freed first, so the handler may send into it.
func (n *Network) arrive(i, _ uint32) bool {
	m := n.inFlight[i]
	n.inFlight[i] = Message{} // drop the payload reference
	n.free = append(n.free, i)
	n.obsDelivered.Inc()
	if h := n.handlers[m.To]; h != nil {
		h(m)
	}
	return true
}

// New returns an empty network driven by s.
func New(s *sim.Simulator) *Network {
	n := &Network{
		sim: s,
		rng: rand.New(rand.NewPCG(s.Rand().Uint64(), s.Rand().Uint64())),
	}
	n.deliver = s.Register(n.arrive)
	return n
}

// AddNode registers a node and returns its id. The handler may be nil and
// set later with SetHandler.
func (n *Network) AddNode(h Handler) NodeID {
	n.handlers = append(n.handlers, h)
	n.group = append(n.group, -1)
	n.adj = append(n.adj, nil)
	return NodeID(len(n.handlers) - 1)
}

// edgeTo finds the link from a to b in a's sorted edge list: its index
// and true, or the index it would be inserted at and false. The loop is
// slices.BinarySearchFunc written out: Send runs it for every reply, and
// through the generic one sim_mesh_32 ran about 6 % slower.
func (n *Network) edgeTo(a, b NodeID) (int, bool) {
	list := n.adj[a]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].to < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo].to == b
}

// setEdge writes a's end of the link to b, in place when the link exists.
func (n *Network) setEdge(a, b NodeID, cfg LinkConfig) {
	i, found := n.edgeTo(a, b)
	if !found {
		n.adj[a] = slices.Insert(n.adj[a], i, edge{to: b})
	}
	e := &n.adj[a][i]
	e.cfg = cfg
	e.band = cfg.band()
}

// SetHandler installs the message handler for id, replacing any previous
// one.
func (n *Network) SetHandler(id NodeID, h Handler) {
	n.handlers[id] = h
}

// Connect creates (or replaces) the bidirectional link between a and b.
// Self-links are rejected: a server's self-reply is modeled at the protocol
// layer with zero delay, as in the paper's Theorem 2 proof.
func (n *Network) Connect(a, b NodeID, cfg LinkConfig) error {
	if a == b {
		return fmt.Errorf("simnet: self-link on node %d", a)
	}
	if !n.valid(a) || !n.valid(b) {
		return fmt.Errorf("simnet: connect %d-%d: unknown node", a, b)
	}
	if err := cfg.Delay.Check(); err != nil {
		return fmt.Errorf("simnet: connect %d-%d: %w", a, b, err)
	}
	if r := cfg.ReverseDelay; r != nil {
		if err := r.Check(); err != nil {
			return fmt.Errorf("simnet: connect %d-%d: reverse %w", a, b, err)
		}
	}
	if !(cfg.Loss >= 0 && cfg.Loss < 1) {
		return fmt.Errorf("simnet: connect %d-%d: loss %v outside [0,1)", a, b, cfg.Loss)
	}
	n.setEdge(a, b, cfg)
	n.setEdge(b, a, cfg)
	n.maxDelayOK = false
	return nil
}

// Connected reports whether a usable link exists between a and b and the
// two nodes are in the same partition.
func (n *Network) Connected(a, b NodeID) bool {
	if !n.valid(a) || !n.valid(b) {
		return false
	}
	_, linked := n.edgeTo(a, b)
	return linked && n.group[a] == n.group[b]
}

// Neighbors returns the ids linked to id, in increasing order, ignoring
// partitions (a partition hides a neighbor from traffic, not from the
// topology).
func (n *Network) Neighbors(id NodeID) []NodeID {
	if !n.valid(id) || len(n.adj[id]) == 0 {
		return nil
	}
	out := make([]NodeID, len(n.adj[id]))
	for i := range out {
		out[i] = n.adj[id][i].to
	}
	return out
}

// Send dispatches payload from one node to another. It returns false if
// the nodes are not linked or are separated by a partition; message loss
// is silent (the message counts as sent and then lost). Delivery happens
// as a scheduled simulator event after the link's sampled delay.
func (n *Network) Send(from, to NodeID, payload any) bool {
	if !n.valid(from) || !n.valid(to) {
		return false
	}
	i, linked := n.edgeTo(from, to)
	if !linked {
		n.obsNoLink.Inc()
		return false
	}
	return n.sendOver(from, &n.adj[from][i], payload)
}

// sendOver is Send once the link is in hand.
func (n *Network) sendOver(from NodeID, e *edge, payload any) bool {
	if n.group[from] != n.group[e.to] {
		n.obsPartitioned.Inc()
		return false
	}
	n.obsSent.Inc()
	if e.cfg.Loss > 0 && n.rng.Float64() < e.cfg.Loss {
		n.obsLost.Inc()
		return true // sent, silently lost
	}
	var i uint32
	if k := len(n.free); k > 0 {
		i, n.free = n.free[k-1], n.free[:k-1]
	} else {
		i = uint32(len(n.inFlight))
		n.inFlight = append(n.inFlight, Message{})
	}
	n.inFlight[i] = Message{From: from, To: e.to, Payload: payload, SentAt: n.sim.Now(), Band: e.band}
	// A fixed band draws nothing, so no stream moves: its delay is Min.
	d := e.cfg.delayFor(from, e.to)
	delay := d.Min
	if d.Max > d.Min {
		delay = d.Draw(n.rng.Float64())
	}
	n.obsDelay.Observe(delay)
	n.sim.After(delay, n.deliver, i, 0)
	return true
}

// Broadcast sends payload from id to every neighbor, returning the number
// of sends that were accepted (linked and not partitioned).
func (n *Network) Broadcast(from NodeID, payload any) int {
	if !n.valid(from) {
		return 0
	}
	sent := 0
	for i := range n.adj[from] {
		if n.sendOver(from, &n.adj[from][i], payload) {
			sent++
		}
	}
	return sent
}

// Partition splits the network: nodes in the same group can communicate,
// nodes in different groups cannot. Nodes absent from every group form one
// extra implicit group. Messages already in flight are still delivered.
func (n *Network) Partition(groups ...[]NodeID) {
	for i := range n.group {
		n.group[i] = -1
	}
	for g, ids := range groups {
		for _, id := range ids {
			if n.valid(id) {
				n.group[id] = g
			}
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	for i := range n.group {
		n.group[i] = -1
	}
}

// Link is one existing link: its two endpoints (A < B) and its current
// configuration.
type Link struct {
	A, B NodeID
	Cfg  LinkConfig
}

// Links returns every link in the network in deterministic order
// (lexicographic by endpoint pair). It is the enumeration hook for fault
// injectors that rewire the whole network — e.g. a loss burst or delay
// spike replaces every link's config via Connect — where a stable order
// keeps runs reproducible.
func (n *Network) Links() []Link {
	var out []Link
	for a, list := range n.adj {
		for _, e := range list {
			if a := NodeID(a); a < e.to {
				out = append(out, Link{A: a, B: e.to, Cfg: e.cfg})
			}
		}
	}
	return out
}

// MaxOneWayDelay returns the largest delay bound over all links, the
// greatest upper edge of their bands. The paper's xi — the bound on the
// time between sending a request and receiving the reply, with
// instantaneous processing — is twice this.
func (n *Network) MaxOneWayDelay() float64 {
	if !n.maxDelayOK {
		n.maxDelay = 0
		for _, list := range n.adj {
			for i := range list {
				if d := list[i].band.Max; d > n.maxDelay {
					n.maxDelay = d
				}
			}
		}
		n.maxDelayOK = true
	}
	return n.maxDelay
}

// Xi returns the paper's round-trip delay bound for this network.
func (n *Network) Xi() float64 { return 2 * n.MaxOneWayDelay() }

func (n *Network) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(n.handlers)
}
