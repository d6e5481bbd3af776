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
	// Delay is the one-way link delay model; defaults to
	// Uniform{0, 0.05} (the paper's zero minimum delay, xi = 0.1 s).
	Delay simnet.DelayModel
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
	// NoStagger starts every server's first round at time zero. Without
	// it, New starts each server's first round at a uniform phase within
	// its period, as unsynchronized servers would be.
	NoStagger bool
	// Members, when non-nil, enables dynamic membership: every server
	// keeps a roster, gossips digests carrying its advertised <C, E>
	// quality, detects failures under drift-widened deadlines, and polls
	// the best-ranked live members instead of broadcasting (see
	// MemberConfig).
	Members *MemberConfig
}

// Node is one running server: the transport-free core.Node (the server,
// its sync policy and counters) plus its network identity, request
// rounds and crash bookkeeping.
type Node struct {
	*core.Node
	Spec  ServerSpec
	NetID simnet.NodeID

	svc      *Service
	hclock   *hlc.Clock
	reqSeq   uint64
	crashed  bool
	crashSeq uint64 // rounds started at or before this id died with a crash
	collect  *collection
	colFree  []*collection // recycled round state
	stopSync func()

	// Dynamic membership state (nil/zero when Config.Members is unset).
	member     *member.Protocol[int]
	stopGossip func()
	departed   bool

	// Adversarial state installed by the chaos tier (nil when honest).
	twoFaced   []float64 // per-destination reply skew (SetTwoFaced)
	equivocate []float64 // per-destination gossip skew (SetEquivocate)
}

// collection is one in-flight request round. Collections are recycled on a
// per-node free list: a round's identity is its id (monotonic per node), so
// reusing the struct cannot confuse stale replies.
type collection struct {
	node      *Node
	id        uint64
	sentLocal float64 // local clock when the broadcast left
	replies   []pendingReply
}

// finishCollection is the closure-free sim callback completing a round.
func finishCollection(x any) {
	col := x.(*collection)
	col.node.finishRound(col)
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
	replyFree []*timeReply // recycled reply payloads

	// Dynamic membership (nil when Config.Members is unset).
	memberCfg  *MemberConfig
	onMember   func(MemberEvent)
	gossipFree []*gossipMsg   // recycled gossip payloads
	memMetrics *memberMetrics // obs wiring, set by Observe
}

type timeRequest struct {
	id uint64
	ts hlc.Timestamp // sender's hybrid logical clock at send
}

// timeReply payloads travel as pooled pointers: each Send carries a unique
// *timeReply, which the receiving handler recycles after copying its
// fields, so answering a request does not allocate in steady state.
// (Requests are broadcast as one shared value, a single boxing per round.)
type timeReply struct {
	id      uint64
	reading core.Reading
	ts      hlc.Timestamp // responder's hybrid logical clock at reply
}

// newReply draws a reply payload from the service pool.
func (svc *Service) newReply(id uint64, reading core.Reading, ts hlc.Timestamp) *timeReply {
	if k := len(svc.replyFree); k > 0 {
		p := svc.replyFree[k-1]
		svc.replyFree[k-1] = nil
		svc.replyFree = svc.replyFree[:k-1]
		p.id = id
		p.reading = reading
		p.ts = ts
		return p
	}
	// Pool miss: once per free-list high-water mark, then recycled forever.
	return &timeReply{id: id, reading: reading, ts: ts}
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
	if cfg.Delay == nil {
		cfg.Delay = simnet.Uniform{Min: 0, Max: 0.05}
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

	// Schedule periodic synchronization.
	for _, node := range svc.Nodes {
		node := node
		period := node.Spec.SyncEvery
		if period <= 0 {
			continue
		}
		phase := 0.0
		if !cfg.NoStagger {
			phase = s.Rand().Float64() * period
		}
		s.At(phase, func() {
			node.startRound()
			node.stopSync = s.Every(period, node.startRound)
		})
	}
	return svc, nil
}

// discipline is the rate discipline a server running fn steers its clock
// by: core.Slew under IM, whose adopted intervals each contain true time
// while the drift bounds hold, and none under every other function. MM
// stays at δ: the server with the smallest error never adopts under MM,
// so it never takes the two readings a steer needs, and the service's
// error tracks it (Theorem 2) whatever the others do (DESIGN.md §3).
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

// handle is a node's network message handler.
func (n *Node) handle(m simnet.Message) {
	if n.crashed {
		return // a crashed server neither answers nor collects
	}
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
		reading := n.Server.Reading(now)
		ts := n.hclock.Update(readingWall(reading), p.ts)
		if n.twoFaced != nil {
			if j := int(m.From); j >= 0 && j < len(n.twoFaced) {
				reading.C += n.twoFaced[j]
			}
		}
		n.svc.Net.Send(n.NetID, m.From, n.svc.newReply(p.id, reading, ts))
	case *timeReply:
		n.hclock.Update(n.hlcWall(now), p.ts)
		id, reading := p.id, p.reading
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

// startRound broadcasts a time request and schedules the round's
// completion.
func (n *Node) startRound() {
	if n.crashed {
		return
	}
	now := n.svc.Sim.Now()
	n.reqSeq++
	var col *collection
	if k := len(n.colFree); k > 0 {
		col = n.colFree[k-1]
		n.colFree[k-1] = nil
		n.colFree = n.colFree[:k-1]
		col.replies = col.replies[:0]
	} else {
		col = &collection{node: n}
	}
	col.id = n.reqSeq
	col.sentLocal = n.Server.Read(now)
	n.collect = col
	sent := 0
	req := timeRequest{id: n.reqSeq, ts: n.HLCNow(now)}
	if n.member != nil {
		// Roster-driven polling: the few live members with the smallest
		// advertised error, plus the exploration slot, among the
		// reachable ones (so every target is a valid node index).
		for _, id := range n.member.PollTargets(n.svc.Sim.Rand().IntN, n.reachable) {
			if n.svc.Net.Send(n.NetID, n.svc.Nodes[id].NetID, req) {
				sent++
			}
		}
	} else {
		sent = n.svc.Net.Broadcast(n.NetID, req)
	}
	if sent == 0 {
		n.collect = nil
		n.colFree = append(n.colFree, col)
		return
	}
	n.svc.Sim.AfterCall(n.svc.CollectWindow(), finishCollection, col)
}

// finishRound ages the collected replies to the sync instant and hands
// them to the node's sync pass (core.Node.Sync). It processes exactly the
// round it was scheduled for, even if a faster sync period has already
// begun the next round.
func (n *Node) finishRound(col *collection) {
	if n.collect == col {
		n.collect = nil
	}
	if n.crashed || col.id <= n.crashSeq {
		// The server crashed after this round was scheduled (or has not
		// restarted): the round dies with it.
		n.colFree = append(n.colFree, col)
		return
	}
	now := n.svc.Sim.Now()
	nowLocal := n.Server.Read(now)
	replies := n.Replies()
	for _, p := range col.replies {
		r := p.reply
		r.Age = nowLocal - p.arrivedLoc
		replies = append(replies, r)
	}
	n.colFree = append(n.colFree, col)
	p := n.Sync(now, replies)
	if n.svc.onSync != nil {
		n.svc.onSync(p)
	}
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
