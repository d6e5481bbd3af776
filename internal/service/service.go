// Package service assembles a complete simulated time service: a set of
// core.Servers with configurable clocks, joined by a simnet topology,
// periodically synchronizing with a pluggable synchronization function.
// It is the workload engine behind every experiment in the paper's
// reproduction: it runs the request/reply protocol the paper assumes
// (broadcast a time request, measure each reply's round trip on the local
// clock, hand the batch to rule MM-2 or IM-2), applies the Section 3
// recovery heuristic on inconsistency, and samples the metrics the
// theorems bound. The policy around a round is core.Node's; this package
// is its simulated transport.
package service

import (
	"cmp"
	"fmt"
	"math"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/interval"
	"disttime/internal/member"
	"disttime/internal/sim"
	"disttime/internal/simnet"
)

// Topology selects how the servers are linked.
type Topology int

// Topologies. The paper's theorems assume a full mesh; the recovery and
// partition experiments use sparser graphs.
const (
	FullMesh Topology = iota + 1
	Ring
	Line
	Star
	Custom // links must be added by the caller before Run
)

// ServerSpec describes one server in the service.
type ServerSpec struct {
	// Delta is the claimed maximum drift rate (rule MM-1 bookkeeping).
	Delta float64
	// Drift is the clock's actual constant drift rate. Ignored when
	// NewClock is set. The claimed bound is valid iff |Drift| <= Delta.
	Drift float64
	// NewClock, when non-nil, builds the server's clock reading value at
	// real time t. It overrides Drift and is the hook for failure-mode
	// clocks and random-walk oscillators.
	NewClock func(t, value float64) clock.Clock
	// InitialOffset is C(0) - 0, the clock's initial displacement from
	// the correct time.
	InitialOffset float64
	// InitialError is the server's initial inherited error. It must be at
	// least |InitialOffset| for the server to start correct.
	InitialError float64
	// SyncEvery is the server's synchronization period tau in seconds.
	// Zero disables synchronization (the server only answers requests).
	// New rejects a period that is NaN, negative or infinite, and a NaN
	// or infinite Drift or InitialOffset.
	SyncEvery float64
	// SlewRate, when positive, wraps the server's clock so corrections
	// are absorbed gradually at this rate instead of stepping (see
	// clock.Slewing). The unabsorbed remainder is charged to the server's
	// reported error automatically. New rejects a rate that is NaN,
	// negative or above 1.
	SlewRate float64
	// Fn overrides the service-wide synchronization function.
	Fn core.SyncFunc
	// Recovery, RateFilter and AdaptiveDelta switch on the server's
	// Section 3 recovery, Section 5 rate filter and δ maintenance
	// (core.Node's fields of the same names).
	Recovery, RateFilter, AdaptiveDelta bool
}

// Config describes a whole service.
type Config struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Delay is every link's one-way delay band; the zero band means
	// [0, 0.05] (the paper's zero minimum delay, xi = 0.1 s).
	Delay core.Band
	// Loss is the per-message loss probability on every link.
	Loss float64
	// Topology selects the link structure; defaults to FullMesh.
	Topology Topology
	// Fn is the default synchronization function; defaults to core.MM{}.
	Fn core.SyncFunc
	// Servers lists the service's members. At least one is required.
	Servers []ServerSpec
	// CollectFor is how long (real seconds) a server waits after
	// broadcasting a request before handing the collected replies to the
	// synchronization function. Defaults to just over the network's xi,
	// so every undropped reply is included. New rejects a window that is
	// NaN, negative or infinite.
	CollectFor float64
	// Members, when non-nil, enables dynamic membership: every server
	// keeps a roster, gossips digests carrying its advertised <C, E>
	// quality, detects failures under drift-widened deadlines, and polls
	// the best-ranked live members instead of broadcasting (see
	// MemberConfig).
	Members *MemberConfig
	// noStagger, a test seam, starts every server's first round at time
	// zero, not at a uniform phase within its period.
	noStagger bool
}

// Node is one running server: the transport-free core.Node (the server,
// its sync policy and counters) plus its network identity, request
// rounds and crash bookkeeping.
type Node struct {
	*core.Node
	Spec  ServerSpec
	NetID simnet.NodeID

	svc     *Service
	hclock  *hlc.Clock
	hears   bool // takes request readings (Hear): a plain-IM server that runs rounds
	reqSeq  uint64
	crashed bool
	collect *collection
	// inc is the node's incarnation: silence bumps it, and a tick or a
	// round's close filed under an older one dies when it fires.
	inc uint32

	// Dynamic membership state (nil/zero when Config.Members is unset).
	member   *member.Protocol[int]
	departed bool

	// Adversarial state installed by the chaos tier (nil when honest).
	twoFaced   []float64 // per-destination reply skew (SetTwoFaced)
	equivocate []float64 // per-destination gossip skew (SetEquivocate)
}

// collection is one in-flight request round. Collections are recycled
// through the service's table, whose index the round's close carries: a
// round's identity is its id (monotonic per node), so reusing the struct
// cannot confuse stale replies.
type collection struct {
	node      *Node
	id        uint64
	sentLocal float64 // local clock when the broadcast left
	replies   []pendingReply
}

type pendingReply struct {
	reply      core.Reply
	arrivedLoc float64 // local clock at arrival
}

// Service is a simulated time service.
type Service struct {
	Sim   *sim.Simulator
	Net   *simnet.Network
	Nodes []*Node

	cfg       Config
	onSync    func(core.Pass)
	replyFree []*timeReply  // recycled reply payloads
	cols      []*collection // round state, reused
	colFree   []uint32      // indices of cols no open round holds

	// The kinds of the service's events: a node's sync tick and gossip
	// tick, tagged with the node and carrying its incarnation, a round's
	// close, tagged with its collection, and a scheduled departure or
	// rejoin, tagged with the node.
	tick, close, gossip, leave, rejoin sim.Kind

	// Dynamic membership (nil when Config.Members is unset).
	memberCfg  *MemberConfig
	onMember   func(MemberEvent)
	gossipFree []*gossipMsg   // recycled gossip payloads
	memMetrics *memberMetrics // obs wiring, set by Observe
}

// timeRequest carries the requester's reading, read once a round as the
// request left, for the responder to take as a reading of its own
// (core.Node.Hear).
type timeRequest struct {
	id      uint64
	ts      hlc.Timestamp // sender's hybrid logical clock at send
	reading core.Reading
}

// timeReply payloads travel as pooled pointers: each Send carries a unique
// *timeReply, which the receiving handler recycles after copying its
// fields, so answering a request does not allocate in steady state.
// (An honest request is broadcast as one shared value, a single boxing per
// round.)
type timeReply struct {
	id      uint64
	reading core.Reading
	ts      hlc.Timestamp // responder's hybrid logical clock at reply
	// band is the band the request crossed (simnet.Message), for the
	// requester to credit with the reply's own.
	band core.Band
}

// newReply draws a reply payload from the service pool and sets it to r.
func (svc *Service) newReply(r timeReply) *timeReply {
	if k := len(svc.replyFree); k > 0 {
		p := svc.replyFree[k-1]
		svc.replyFree[k-1] = nil
		svc.replyFree = svc.replyFree[:k-1]
		*p = r
		return p
	}
	// Pool miss: once per free-list high-water mark, then recycled forever.
	p := new(timeReply)
	*p = r
	return p
}

// putReply recycles a delivered reply payload. Payloads lost in transit are
// simply dropped to the garbage collector.
func (svc *Service) putReply(p *timeReply) {
	svc.replyFree = append(svc.replyFree, p)
}

// New builds the service at virtual time zero. The configuration is
// validated; the returned service is ready for Run or manual stepping via
// its Sim.
func New(cfg Config) (*Service, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("service: no servers configured")
	}
	if interval.SameEdge(cfg.Delay.Min, 0) && interval.SameEdge(cfg.Delay.Max, 0) {
		cfg.Delay = core.Band{Max: 0.05}
	}
	if cfg.Fn == nil {
		cfg.Fn = core.MM{}
	}
	if cfg.Topology == 0 {
		cfg.Topology = FullMesh
	}

	s := sim.New(cfg.Seed)
	net := simnet.New(s)
	svc := &Service{Sim: s, Net: net, cfg: cfg}
	svc.tick = s.Register(svc.syncTick)
	svc.close = s.Register(svc.finishRound)
	svc.gossip = s.Register(svc.gossipTick)
	svc.leave = s.Register(func(i, _ uint32) bool { svc.Leave(int(i)); return true })
	svc.rejoin = s.Register(func(i, _ uint32) bool { svc.Rejoin(int(i)); return true })

	if !(cfg.CollectFor >= 0) || math.IsInf(cfg.CollectFor, 1) {
		return nil, fmt.Errorf("service: collection window %v not finite and non-negative", cfg.CollectFor)
	}

	link := simnet.LinkConfig{Delay: cfg.Delay, Loss: cfg.Loss}
	ids := make([]simnet.NodeID, len(cfg.Servers))
	for i, spec := range cfg.Servers {
		if spec.InitialError < math.Abs(spec.InitialOffset) {
			return nil, fmt.Errorf(
				"service: server %d starts incorrect: offset %v exceeds error %v",
				i, spec.InitialOffset, spec.InitialError)
		}
		if !(spec.SyncEvery >= 0) || math.IsInf(spec.SyncEvery, 1) {
			return nil, fmt.Errorf("service: server %d: sync period %v not finite and non-negative", i, spec.SyncEvery)
		}
		if math.IsNaN(spec.Drift) || math.IsInf(spec.Drift, 0) ||
			math.IsNaN(spec.InitialOffset) || math.IsInf(spec.InitialOffset, 0) {
			return nil, fmt.Errorf("service: server %d: drift %v or initial offset %v not finite", i, spec.Drift, spec.InitialOffset)
		}
		if !(spec.SlewRate >= 0 && spec.SlewRate <= 1) {
			return nil, fmt.Errorf("service: server %d: slew rate %v outside [0, 1]", i, spec.SlewRate)
		}
		var clk clock.Clock
		if spec.NewClock != nil {
			clk = spec.NewClock(0, spec.InitialOffset)
		} else {
			clk = clock.NewDrifting(0, spec.InitialOffset, spec.Drift)
		}
		if spec.SlewRate > 0 {
			clk = clock.NewSlewing(clk, spec.SlewRate)
		}
		server, err := core.NewServer(0, core.Config{
			ID:           i,
			Clock:        clk,
			Delta:        spec.Delta,
			InitialError: spec.InitialError,
		})
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		fn := cmp.Or(spec.Fn, cfg.Fn)
		node := &Node{
			Node: &core.Node{Server: server, Fn: fn, Discipline: discipline(fn),
				Recovery: spec.Recovery, RateFilter: spec.RateFilter, AdaptiveDelta: spec.AdaptiveDelta},
			Spec:   spec,
			svc:    svc,
			hclock: hlc.New(uint32(i)),
			hears:  discipline(fn) != nil && spec.SyncEvery > 0,
		}
		node.NetID = net.AddNode(node.handle)
		ids[i] = node.NetID
		svc.Nodes = append(svc.Nodes, node)
	}

	var err error
	switch cfg.Topology {
	case FullMesh:
		err = simnet.FullMesh(net, ids, link)
	case Ring:
		err = simnet.Ring(net, ids, link)
	case Line:
		err = simnet.Line(net, ids, link)
	case Star:
		err = simnet.Star(net, ids[0], ids[1:], link)
	case Custom:
		// Caller wires links.
	default:
		err = fmt.Errorf("service: unknown topology %d", cfg.Topology)
	}
	if err != nil {
		return nil, err
	}

	if cfg.Members != nil {
		if err := svc.initMembership(); err != nil {
			return nil, err
		}
	}

	// Schedule periodic synchronization: each node's first tick, at its
	// phase.
	for _, node := range svc.Nodes {
		period := node.Spec.SyncEvery
		if period <= 0 {
			continue
		}
		phase := 0.0
		if !cfg.noStagger {
			phase = s.Rand().Float64() * period
		}
		s.At(phase, svc.tick, uint32(node.Server.ID()), node.inc)
	}
	return svc, nil
}

// discipline is the rate discipline a server running fn steers its clock
// by: core.Slew under IM, whose adopted intervals each contain true time
// while the drift bounds hold, and none under every other function. MM
// stays at δ: the server with the smallest error never adopts under MM,
// so it never takes the two readings a steer needs, and the service's
// error tracks it (Theorem 2) whatever the others do (DESIGN.md §3).
// The same servers, when they run rounds, take each request's reading
// (Node.hear): IM's intersection is what a reading folds into, and a
// server that never syncs only serves.
func discipline(fn core.SyncFunc) core.RateRule {
	if _, ok := fn.(core.IM); ok {
		return core.Slew{}
	}
	return nil
}

// CollectWindow returns the reply-collection window used by sync rounds.
func (svc *Service) CollectWindow() float64 {
	if svc.cfg.CollectFor > 0 {
		return svc.cfg.CollectFor
	}
	return core.CollectWindow(svc.Net.Xi())
}

// Link connects two servers by index with the service's default link
// parameters (for Custom topologies).
func (svc *Service) Link(i, j int) error {
	return svc.Net.Connect(svc.Nodes[i].NetID, svc.Nodes[j].NetID,
		simnet.LinkConfig{Delay: svc.cfg.Delay, Loss: svc.cfg.Loss})
}

// Run advances the simulation to the given virtual time.
func (svc *Service) Run(until float64) { svc.Sim.RunUntil(until) }

// hlcWall returns the node's HLC physical component at virtual time t:
// the reading's latest bound C+E in nanoseconds, so a stamp taken at
// true time t is at least t while the clock is contained.
func (n *Node) hlcWall(t float64) int64 { return readingWall(n.Server.Reading(t)) }

// readingWall is the HLC physical component a reading stands for.
func readingWall(r core.Reading) int64 { return hlc.WallFromSeconds(r.C + r.E) }

// HLCNow issues the node's timestamp for a local event at virtual time
// t — the transaction workload's stamp.
func (n *Node) HLCNow(t float64) hlc.Timestamp { return n.hclock.Now(n.hlcWall(t)) }

// HLCLast returns the node's hybrid logical clock state without
// advancing it (the chaos monitor's probe).
func (n *Node) HLCLast() hlc.Timestamp { return n.hclock.Last() }

// handle is a node's network message handler, installed while the node
// is up: a crashed or departed server neither answers nor collects.
func (n *Node) handle(m simnet.Message) {
	now := n.svc.Sim.Now()
	if n.member != nil {
		// Any protocol message is direct evidence the sender is serving.
		n.member.Heard(int(m.From), n.Server.Read(now))
	}
	switch p := m.Payload.(type) {
	case timeRequest:
		// Rule MM-1: answer with the current reading. A two-faced server
		// answers each peer from an independently skewed clock register —
		// its own bookkeeping stays honest, only the reply lies, and it
		// lies differently per destination. The HLC piggyback comes from
		// the node's real clock state either way: the adversary tier lies
		// about readings, not about causality.
		own := n.Server.Reading(now)
		ts := n.hclock.Update(readingWall(own), p.ts)
		reading := own
		reading.C += n.skew(m.From)
		n.svc.Net.Send(n.NetID, m.From, n.svc.newReply(timeReply{id: p.id, reading: reading, ts: ts, band: m.Band}))
		n.hear(now, own, m, p.reading)
	case *timeReply:
		n.hclock.Update(n.hlcWall(now), p.ts)
		id, reading, band := p.id, p.reading, p.band
		n.svc.putReply(p)
		if n.collect == nil || n.collect.id != id {
			return // stale reply from a finished round
		}
		local := n.Server.Read(now)
		r := core.Reply{
			From:  int(m.From),
			C:     reading.C,
			E:     reading.E,
			RTT:   local - n.collect.sentLocal,
			Delta: reading.Delta,
		}
		if band.Known() && m.Band.Known() {
			// Charge credits one band to both legs: the hull of the
			// request's and the reply's, which differ when the link
			// changed between them (a delay spike).
			r.Band = core.Band{Min: min(band.Min, m.Band.Min), Max: max(band.Max, m.Band.Max)}
		}
		n.collect.replies = append(n.collect.replies, pendingReply{reply: r, arrivedLoc: local})
		n.Observe(r, local)
	case *gossipMsg:
		n.hclock.Update(n.hlcWall(now), p.ts)
		if n.member == nil {
			return
		}
		n.handleGossip(m.From, p, now)
	}
}

// skew is the lie a two-faced node tells dst (SetTwoFaced), zero when
// it is honest.
func (n *Node) skew(dst simnet.NodeID) float64 {
	if j := int(dst); j >= 0 && j < len(n.twoFaced) {
		return n.twoFaced[j]
	}
	return 0
}

// hear takes the reading r a request m carried, over the band of the
// link it crossed, when the node takes requests (core.Node.Hear), own
// being the node's reading as it answered: held for the open round as
// one more reply, or adopted outside one, a pass of its own that the
// sync observers see.
func (n *Node) hear(now float64, own core.Reading, m simnet.Message, r core.Reading) {
	if !n.hears {
		return
	}
	in := core.Reply{From: int(m.From), C: r.C, E: r.E, Delta: r.Delta, Band: m.Band}
	held, hold, set := n.Hear(now, own, in, n.collect != nil)
	switch {
	case hold:
		n.collect.replies = append(n.collect.replies, pendingReply{reply: held, arrivedLoc: own.C})
	case set != nil && n.svc.onSync != nil:
		n.svc.onSync(*set)
	}
}

// ask sends the round's request to dst. A two-faced node's request lies
// as its reply would: its reading carries the skew it tells dst.
func (n *Node) ask(dst simnet.NodeID, req timeRequest) bool {
	req.reading.C += n.skew(dst)
	return n.svc.Net.Send(n.NetID, dst, req)
}

// syncTick is node i's sync tick under incarnation inc: a round, and the
// next tick one period on. A tick its node has outlived is dropped.
func (svc *Service) syncTick(i, inc uint32) bool {
	n := svc.Nodes[i]
	if inc != n.inc {
		return false
	}
	n.startRound()
	svc.Sim.After(n.Spec.SyncEvery, svc.tick, i, inc)
	return true
}

// startRound broadcasts a time request carrying the node's reading and
// schedules the round's completion.
func (n *Node) startRound() {
	svc := n.svc
	now := svc.Sim.Now()
	n.reqSeq++
	var slot uint32
	if k := len(svc.colFree); k > 0 {
		slot, svc.colFree = svc.colFree[k-1], svc.colFree[:k-1]
		svc.cols[slot].replies = svc.cols[slot].replies[:0]
	} else {
		slot = uint32(len(svc.cols))
		svc.cols = append(svc.cols, &collection{})
	}
	col := svc.cols[slot]
	col.node = n
	reading := n.Server.Reading(now)
	col.id = n.reqSeq
	col.sentLocal = reading.C
	n.collect = col
	sent := 0
	req := timeRequest{id: n.reqSeq, ts: n.HLCNow(now), reading: reading}
	switch {
	case n.member != nil:
		// Roster-driven polling: the few live members with the smallest
		// advertised error, plus the exploration slot, among the
		// reachable ones (so every target is a valid node index).
		for _, id := range n.member.PollTargets(n.svc.Sim.Rand().IntN, n.reachable) {
			if n.ask(n.svc.Nodes[id].NetID, req) {
				sent++
			}
		}
	case n.twoFaced != nil:
		// A lie per destination: one send each, in Broadcast's order.
		for _, id := range n.svc.Net.Neighbors(n.NetID) {
			if n.ask(id, req) {
				sent++
			}
		}
	default:
		sent = n.svc.Net.Broadcast(n.NetID, req)
	}
	if sent == 0 {
		n.collect = nil
		svc.colFree = append(svc.colFree, slot)
		return
	}
	svc.Sim.After(svc.CollectWindow(), svc.close, slot, n.inc)
}

// finishRound closes the round in collection slot, started under
// incarnation inc: it ages the collected replies to the sync instant and
// hands them to the node's sync pass (core.Node.Sync). It processes
// exactly the round it was scheduled for, even if a faster sync period
// has already begun the next round. A round whose node has crashed or
// left since it started dies with that incarnation, as a run event.
func (svc *Service) finishRound(slot, inc uint32) bool {
	col := svc.cols[slot]
	n := col.node
	if n.collect == col {
		n.collect = nil
	}
	if inc != n.inc {
		svc.colFree = append(svc.colFree, slot)
		return true
	}
	now := svc.Sim.Now()
	nowLocal := n.Server.Read(now)
	replies := n.Replies()
	for _, p := range col.replies {
		r := p.reply
		r.Age = nowLocal - p.arrivedLoc
		replies = append(replies, r)
	}
	svc.colFree = append(svc.colFree, slot)
	p := n.Sync(now, replies)
	if svc.onSync != nil {
		svc.onSync(p)
	}
	return true
}

// Sample is one metrics snapshot of the whole service.
type Sample struct {
	// T is the virtual (correct) time of the snapshot.
	T float64
	// C and E are per-server clock values and maximum errors.
	C []float64
	E []float64
	// Offset is C[i] - T per server.
	Offset []float64
	// MinError is the smallest error in the service (the paper's E_M).
	MinError float64
	// MinErrorServer is the index attaining MinError (the paper's S_M).
	MinErrorServer int
	// MaxAsync is the largest pairwise clock difference |C_i - C_j|.
	MaxAsync float64
	// MaxAbsOffset is the largest |C_i - T|: the service's worst
	// incorrectness exposure.
	MaxAbsOffset float64
	// AllCorrect reports whether every server's interval contains T.
	AllCorrect bool
	// Consistent reports whether all intervals share a common point.
	Consistent bool
	// Groups is the number of maximal consistency groups (1 when
	// consistent).
	Groups int
}

// Snapshot measures the service at the current virtual time.
func (svc *Service) Snapshot() Sample {
	t := svc.Sim.Now()
	n := len(svc.Nodes)
	s := Sample{
		T:              t,
		C:              make([]float64, n),
		E:              make([]float64, n),
		Offset:         make([]float64, n),
		MinError:       math.Inf(1),
		MinErrorServer: -1,
		AllCorrect:     true,
	}
	ivs := make([]interval.Interval, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, node := range svc.Nodes {
		r := node.Server.Reading(t)
		s.C[i] = r.C
		lo, hi = min(lo, r.C), max(hi, r.C)
		s.E[i] = r.E
		s.Offset[i] = r.C - t
		if math.Abs(s.Offset[i]) > s.MaxAbsOffset {
			s.MaxAbsOffset = math.Abs(s.Offset[i])
		}
		if r.E < s.MinError {
			s.MinError = r.E
			s.MinErrorServer = i
		}
		ivs[i] = r.Interval()
		if !ivs[i].Contains(t) {
			s.AllCorrect = false
		}
	}
	// The largest |C_i - C_j| is the highest clock less the lowest.
	if d := hi - lo; d > 0 {
		s.MaxAsync = d
	}
	_, s.Consistent = interval.IntersectAll(ivs)
	s.Groups = len(interval.ConsistencyGroups(ivs))
	return s
}

// RunSampled advances the simulation to duration, taking a Snapshot every
// sampleEvery seconds (and one final snapshot at duration).
func (svc *Service) RunSampled(duration, sampleEvery float64) ([]Sample, error) {
	if sampleEvery <= 0 {
		return nil, fmt.Errorf("service: non-positive sample period %v", sampleEvery)
	}
	var samples []Sample
	for t := sampleEvery; t < duration; t += sampleEvery {
		svc.Sim.RunUntil(t)
		samples = append(samples, svc.Snapshot())
	}
	svc.Sim.RunUntil(duration)
	samples = append(samples, svc.Snapshot())
	return samples, nil
}
