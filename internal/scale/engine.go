// Package scale runs the paper's time-service protocol at planet scale on
// the event kernel, internal/sim/shard. Where internal/service builds real
// Server objects, a message network, and per-reply bookkeeping — the
// right fidelity for hundreds of servers — this engine calls the same
// rule functions (core/rules.go) over flat per-node arrays so that runs of
// 10^5 servers finish in seconds. Both credit each link's delay band on a
// reply and take each request as a reading; service does it through
// core.Node (Server.effective, Node.Hear):
//
//   - MM-1: a node answers a request with <C_j(t), E_j(t)> where
//     E_j(t) = epsilon_j + (C_j(t) - r_j) * a_j, a_j its aging rate:
//     delta, until the rate discipline below gives a residual.
//   - IM-2: a requester transforms each reply into the offset interval
//     [C_j - E_j + max(m, (1-a_i) rtt - M) - C_i,
//     C_j + E_j + min((1+a_i) rtt - m, M) - C_i], rtt the round trip it
//     measured on its own clock and [m, M] the band the exchange
//     travelled (core.Charge): each leg took between m and M, so the
//     reply's took at least m and the round trip less the longest request
//     leg, and at most M and the round trip less the shortest. It
//     intersects (including its own interval), and resets to the
//     midpoint. The intersection is maintained incrementally as
//     replies arrive, aged by the local clock's progress exactly as
//     core.Server's Age machinery ages a batched reply.
//   - IM-2 intersects requests too. A request carries the requester's
//     <C_i, E_i> read as it left, and it arrived between the band's Min
//     and Max later, so the responder holds the interval
//     [C_i - E_i + m - C_j, C_i + E_i + M - C_j] at no cost in messages
//     (core.Leg): folded into an open round, or outside one adopted if it
//     narrows (core.Narrow; DESIGN.md §3, "A request is a reading").
//   - The round closes, and IM adopts, core.CollectWindow(xi) after it
//     starts, as internal/service's rounds do: xi is twice the largest
//     delay bound of a tier the topology has links on, so every reply is
//     in by then. Closing later gains nothing: the intersection widens by
//     a_i per local second (core.Widen) around the same midpoint, as an
//     adopted clock's MM-1 error grows, so a node that adopts at the
//     window reads, at any later instant, the C and E that adopting there
//     would give, and before it an E no larger than its own (Theorem 6).
//     Its neighbours hear the tighter interval sooner.
//   - §5's rate discipline, at every IM adopt (core.Slew's step, which
//     core.Node runs too): the node's first adopted reading is its
//     anchor, and the anchor, the reading just adopted and the raw
//     oscillator ticks between them bound its own drift
//     (core.DriftInterval). Clipped to [-delta, delta], the bound steers
//     the clock's rate to its centre, C continuous, and its residual
//     (core.Steer) becomes a_i. An empty bound means a drift outside
//     delta: the node runs unsteered at delta again, re-anchors, and
//     the engine counts a fallback (Fallbacks). Only a node's own
//     readings enter, so no clique can talk its rates down (DESIGN.md
//     §3, "Rate discipline").
//
// IM is the engine's one rule: MM runs in internal/service.
//
// The topology is a stratified hierarchy computed from node ids (Topo and
// the arithmetic below it; no link objects, and internal/simnet is not
// involved): regions of clusters of full-mesh members, uplinks from
// cluster gateways to region hubs, and a hub-to-hub backbone. Every
// stochastic choice draws from the choosing node's own stream, and the
// kernel runs events in key order (see internal/sim/shard), so a seeded
// run is byte-identical from run to run.
//
// The engine runs the fault-free service only. Faults and dynamic
// membership belong to the campaign grammar of internal/chaos, which
// reaches internal/service today and reaches this engine once the monitor
// takes an interface (ROADMAP item 2).
package scale

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/sim/shard"
)

// Rule selects the synchronization function.
type Rule int

// RuleIM is algorithm IM (intersect intervals, adopt the midpoint), the
// one rule New accepts.
const RuleIM Rule = 0

// Topology shapes the stratified hierarchy. Members is a full mesh per
// cluster; member 0 of each cluster is its gateway; cluster 0's gateway
// is the region hub. A 1x1xN topology is the paper's full mesh.
type Topology struct {
	Regions  int
	Clusters int // per region
	Members  int // per cluster
}

// Nodes returns the total node count.
func (t Topology) Nodes() int { return t.Regions * t.Clusters * t.Members }

// Band is a uniform delay band [Min, Max] in seconds.
type Band struct {
	Min float64
	Max float64
}

// sample is the delay a uniform draw u in [0, 1) picks from the band: a
// message's one-way delay, drawn from its sender's stream.
func (b Band) sample(u float64) float64 { return b.Min + u*(b.Max-b.Min) }

// Config configures an engine.
type Config struct {
	// Topo is the hierarchy shape. Required; Members >= 2.
	Topo Topology
	// Shards is inert: the kernel is one pending set. It stays because
	// cmd/bench sets it.
	Shards int
	// Seed roots every per-node stream.
	Seed uint64
	// Tau is the synchronization period in seconds. Required > 0.
	Tau float64
	// K is how many cluster peers each node samples per round; 0 means
	// all cluster peers (the full-mesh protocol of the theorems).
	K int
	// Delta is the common claimed drift bound.
	Delta float64
	// DriftMax bounds the actual drift rates, drawn i.i.d. uniform in
	// [-DriftMax, DriftMax] (Theorem 8's setting when < Delta).
	DriftMax float64
	// InitialError is every node's starting inherited error; initial
	// clock offsets are drawn uniform within it, so the claim is honest.
	InitialError float64
	// Member, Uplink, and Backbone are the three tiers' delay bands.
	// Both edges are soundness premises: a reply's leg is taken to lie in
	// the band (at least Min and at least the round trip less Max, at
	// most Max and at most the round trip less Min), and a request's
	// interval spans its leg from Min up to Max, so a delay outside its
	// band can put an interval off the true time.
	Member, Uplink, Backbone Band
	// Rule must be RuleIM.
	Rule Rule
}

// Event kinds.
const (
	kSync    uint16 = iota + 1 // periodic round start on a node
	kRequest                   // time request delivery; A = C_i, B = E_i at send
	kReply                     // time reply delivery; A = C_j, B = E_j
	kClose                     // round close: apply IM's intersection; retire the round
)

// Engine is a running scale simulation. All per-node state lives in flat
// arrays indexed by node id; an event's handler touches only its own
// node's entries.
type Engine struct {
	cfg    Config
	k      *shard.Kernel
	n      int
	xi     float64 // the round-trip bound: twice the largest delay on a link
	window float64 // core.CollectWindow(xi): a round's start to its close

	// Clock and rule MM-1 bookkeeping. C_i(t) = off + (1+rate)*t, rate
	// the clock's: the oscillator's drift, and once steered its steer.
	// age is the rate, per local second, at which E ages and the running
	// intersection widens: delta, or the discipline's residual.
	off, rate     []float64
	eps, resetRef []float64
	age           []float64
	anchor        []anchor

	// Per-round IM state: the running offset intersection [a, b] relative
	// to the node's clock reading lastC, and the replies and requests
	// used. A round's requests carry its tag, round[i]. sync and close
	// each advance it, so it is odd while a round is open, and a reply
	// that arrives after its round closed matches no tag.
	a, b, lastC []float64
	reqC        []float64
	used        []int32
	round       []uint32

	// Engine-wide counts, not one per node. resets counts clock resets,
	// incons inconsistent observations, late replies whose round had
	// closed (zero while xi bounds every delay) and fallbacks rate bounds
	// that missed [-delta, delta].
	resets, incons, late, fallbacks uint64

	obsResets *obs.Counter
	obsIncons *obs.Counter
}

// New builds an engine at virtual time zero with every node's first round
// scheduled at a deterministic phase within the first period.
func New(cfg Config) (*Engine, error) {
	t := cfg.Topo
	if t.Regions <= 0 || t.Clusters <= 0 || t.Members < 2 {
		return nil, fmt.Errorf("scale: topology %dx%dx%d needs positive tiers and >= 2 members",
			t.Regions, t.Clusters, t.Members)
	}
	if cfg.Rule != RuleIM {
		return nil, fmt.Errorf("scale: rule %d: IM is the only rule", cfg.Rule)
	}
	if !(cfg.Tau > 0) || math.IsInf(cfg.Tau, 1) {
		return nil, fmt.Errorf("scale: tau %v not finite and positive", cfg.Tau)
	}
	for _, x := range []float64{cfg.Delta, cfg.DriftMax, cfg.InitialError} {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("scale: delta %v, drift %v, initial error %v: each must be finite and non-negative",
				cfg.Delta, cfg.DriftMax, cfg.InitialError)
		}
	}
	for _, b := range []Band{cfg.Member, cfg.Uplink, cfg.Backbone} {
		if !(b.Min >= 0 && b.Max >= b.Min) || math.IsInf(b.Max, 1) {
			return nil, fmt.Errorf("scale: delay band [%v, %v] not finite with 0 <= min <= max", b.Min, b.Max)
		}
	}
	// xi over the tiers with links, as simnet.MaxOneWayDelay takes it over
	// existing links: gateways reach a hub over an uplink only when a
	// region has several clusters, and hubs each other only when there
	// are several regions.
	maxDelay := cfg.Member.Max
	if t.Clusters > 1 {
		maxDelay = max(maxDelay, cfg.Uplink.Max)
	}
	if t.Regions > 1 {
		maxDelay = max(maxDelay, cfg.Backbone.Max)
	}
	xi := 2 * maxDelay
	window := core.CollectWindow(xi)
	if !(window > 0 && window < cfg.Tau) {
		// A zero window closes a round before its replies arrive, and one
		// of tau or more after the next round has begun: IM never adopts.
		return nil, fmt.Errorf("scale: collect window %v not in (0, tau %v)", window, cfg.Tau)
	}
	// Node ids are int32 (shard.Ev), so the count must fit one. The
	// tiers are positive, so each quotient bounds the product before it
	// is taken.
	if t.Clusters > math.MaxInt32/t.Regions || t.Members > math.MaxInt32/(t.Regions*t.Clusters) {
		return nil, fmt.Errorf("scale: topology %dx%dx%d has more than %d nodes",
			t.Regions, t.Clusters, t.Members, math.MaxInt32)
	}
	n := t.Nodes()
	e := &Engine{
		cfg: cfg, n: n, xi: xi, window: window,
		off: make([]float64, n), rate: make([]float64, n),
		eps: make([]float64, n), resetRef: make([]float64, n),
		age: make([]float64, n), anchor: make([]anchor, n),
		a: make([]float64, n), b: make([]float64, n), lastC: make([]float64, n),
		reqC: make([]float64, n), used: make([]int32, n), round: make([]uint32, n),
	}
	var err error
	if e.k, err = shard.New(shard.Config{Nodes: n, Seed: cfg.Seed, Handler: e}); err != nil {
		return nil, err
	}

	// Node state init is sequential: one dedicated stream, consumed in
	// node order.
	init := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa5a5a5a5a5a5a5a5))
	for i := 0; i < n; i++ {
		e.rate[i] = (2*init.Float64() - 1) * cfg.DriftMax
		e.age[i] = cfg.Delta
		// Inherited error is "however the clock was first set": drawn per
		// node in (0.2, 1] of InitialError, with the true offset inside
		// it, so every initial claim is honest and errors are
		// heterogeneous.
		e0 := cfg.InitialError * (0.2 + 0.8*init.Float64())
		e.off[i] = (2*init.Float64() - 1) * e0
		e.eps[i] = e0
		e.resetRef[i] = e.off[i] // clock value at t=0
		phase := cfg.Tau * init.Float64()
		e.k.Seed(int32(i), phase, kSync, 0, 0, 0)
	}
	return e, nil
}

// Close does nothing: the engine starts no goroutine. It stays because
// cmd/bench still calls it.
func (e *Engine) Close() {}

// Observe registers the engine's reset and inconsistency counters in reg.
func (e *Engine) Observe(reg *obs.Registry) {
	e.obsResets = reg.Counter("scale_resets_total")
	e.obsIncons = reg.Counter("scale_inconsistent_total")
}

// Shards returns 1: the kernel is one pending set. It stays because
// cmd/bench reports it.
func (e *Engine) Shards() int { return 1 }

// Steps returns the total events executed.
func (e *Engine) Steps() uint64 { return e.k.Steps() }

// Nodes returns the node count.
func (e *Engine) Nodes() int { return e.n }

// Run advances the simulation to virtual time until.
func (e *Engine) Run(until float64) { e.k.Run(until) }

// --- topology arithmetic (ids are (region, cluster, member) in row-major
// order, so every role is a pure function of the id) ---

func (e *Engine) clusterBase(i int32) int32 { return i - i%int32(e.cfg.Topo.Members) }
func (e *Engine) isGateway(i int32) bool    { return i%int32(e.cfg.Topo.Members) == 0 }
func (e *Engine) isHub(i int32) bool {
	per := int32(e.cfg.Topo.Clusters * e.cfg.Topo.Members)
	return i%per == 0
}
func (e *Engine) hubOf(i int32) int32 {
	per := int32(e.cfg.Topo.Clusters * e.cfg.Topo.Members)
	return i - i%per
}

// band is the delay band of the link between src and dst, either way:
// ids share a cluster, or a region, when they share its quotient.
func (e *Engine) band(src, dst int32) Band {
	m := int32(e.cfg.Topo.Members)
	if src/m == dst/m {
		return e.cfg.Member
	}
	if per := m * int32(e.cfg.Topo.Clusters); src/per == dst/per {
		return e.cfg.Uplink
	}
	return e.cfg.Backbone
}

// --- rule MM-1 primitives ---

func (e *Engine) read(i int32, t float64) float64 {
	return e.off[i] + (1+e.rate[i])*t
}

func (e *Engine) errAt(i int32, t float64) float64 {
	return core.AgedError(e.eps[i], e.read(i, t)-e.resetRef[i], e.age[i])
}

func (e *Engine) setClock(i int32, t, c, err float64) {
	e.off[i] = c - (1+e.rate[i])*t
	e.eps[i] = err
	e.resetRef[i] = c
	e.resets++
	e.obsResets.Inc()
}

// anchor is the reading a node's rate discipline measures from, taken
// at true time T, and the oscillator's drift. The drift is the simulated
// oscillator the clock runs on: the node sees it only as raw ticks,
// (1+drift) per true second, and as its clock's rate, the ticks over
// 1+centre once steered. It is recorded with the first anchor, while
// the clock still runs at the oscillator, and zero before.
type anchor struct {
	core.Anchor
	drift float64
}

// discipline runs §5's rate rule (core.Slew) on the reading <c, eps>
// node i adopts at t, before setClock installs it, and sets the clock's
// rate and the node's aging rate from it.
func (e *Engine) discipline(i int32, t, c, eps float64) {
	an := &e.anchor[i]
	drift := an.drift
	if !an.Anchored() {
		drift = e.rate[i] // unanchored nodes run unsteered
	}
	r, next, fallback := core.Slew{}.Step(an.Anchor, t, c, eps, (1+drift)*(t-an.T), e.cfg.Delta)
	*an = anchor{next, drift}
	e.rate[i], e.age[i] = drift, r.Age
	if r.Steered {
		e.rate[i] = (1+drift)/(1+r.Centre) - 1
	}
	if fallback {
		e.fallbacks++
	}
}

// Event dispatches one kernel event. Requests and replies carry the
// round in Tag, and the sender's reading in (A, B).
func (e *Engine) Event(p *shard.Proc, ev shard.Ev) {
	switch ev.Kind {
	case kSync:
		e.sync(p, ev.Node)
	case kRequest:
		e.request(p, ev.Node, ev.From, ev.Tag, ev.A, ev.B)
	case kReply:
		e.reply(p, ev.Node, ev.From, ev.Tag, ev.A, ev.B)
	case kClose:
		e.close(p, ev.Node, ev.Tag)
	default:
		panic(fmt.Sprintf("scale: unknown event kind %d", ev.Kind))
	}
}

// sync starts node i's round: the request broadcast to its sampled
// cluster peers plus its role links (gateway -> hub, hub -> other hubs),
// then the close timer; the next round's timer is set first.
func (e *Engine) sync(p *shard.Proc, i int32) {
	t := p.Now()
	p.After(i, e.cfg.Tau, kSync, 0, 0, 0)
	ci := e.read(i, t)
	ei := e.errAt(i, t)
	e.round[i]++
	tag := e.round[i]
	e.reqC[i] = ci
	e.a[i], e.b[i] = -ei, ei // rule IM-2 intersects the own interval too
	e.lastC[i] = ci
	e.used[i] = 0

	m := int32(e.cfg.Topo.Members)
	base := e.clusterBase(i)
	if k := int32(e.cfg.K); k <= 0 || k >= m-1 {
		for j := base; j < base+m; j++ {
			if j != i {
				e.ask(p, i, j, tag, ci, ei)
			}
		}
	} else {
		for q := int32(0); q < k; q++ {
			j := base + int32(p.Uint64(i)%uint64(m))
			if j == i {
				j = base + (j-base+1)%m
			}
			e.ask(p, i, j, tag, ci, ei)
		}
	}
	if e.isHub(i) {
		per := int32(e.cfg.Topo.Clusters * e.cfg.Topo.Members)
		for r := int32(0); r < int32(e.cfg.Topo.Regions); r++ {
			if hub := r * per; hub != i {
				e.ask(p, i, hub, tag, ci, ei)
			}
		}
	} else if e.isGateway(i) {
		e.ask(p, i, e.hubOf(i), tag, ci, ei)
	}
	p.After(i, e.window, kClose, tag, 0, 0)
}

// ask sends one time request from i to j, carrying i's reading <ci, ei>.
func (e *Engine) ask(p *shard.Proc, i, j int32, tag uint32, ci, ei float64) {
	p.Send(i, j, e.band(i, j).sample(p.Float64(i)), kRequest, tag, ci, ei)
}

// request answers a time request at node j per rule MM-1, and takes the
// requester's reading <ci, ei> over a leg of the link's band as one more
// interval (core.Leg), by core.Node.Hear's rule: one disjoint from j's
// own is inconsistent and ignored; in j's open round it folds in, as a
// reply does (j's clock never moves mid-round, since reqC and lastC time
// the round's replies); outside one j adopts it if it narrows j's
// interval (core.Narrow), rate, aging rate and anchor untouched.
func (e *Engine) request(p *shard.Proc, j, from int32, tag uint32, ci, ei float64) {
	t := p.Now()
	cj, ej := e.read(j, t), e.errAt(j, t)
	band := e.band(from, j)
	p.Send(j, from, band.sample(p.Float64(j)), kReply, tag, cj, ej)
	lo, hi := core.Leg(ci, ei, band.Min, band.Max, cj)
	switch {
	case !core.Consistent(lo, hi, ej):
		e.inconsistent()
	case e.round[j]&1 != 0:
		a, b := core.Widen(e.a[j], e.b[j], cj-e.lastC[j], e.age[j])
		e.a[j], e.b[j] = core.Fold(a, b, lo, hi)
		e.lastC[j] = cj
		e.used[j]++
	default:
		if shift, eps, ok := core.Narrow(lo, hi, ej, cj); ok {
			e.setClock(j, t, cj+shift, eps)
		}
	}
}

// reply processes a reply <cj, ej> arriving at node i: the transit
// charge over the link's band (core.Charge: the reply's leg bounded by
// the band and by the measured round trip less the request's leg, the
// round trip stretched by 1-a_i and 1+a_i), the consistency check, and
// IM's incremental intersection.
func (e *Engine) reply(p *shard.Proc, i, from int32, tag uint32, cj, ej float64) {
	if tag != e.round[i] {
		e.late++
		return
	}
	t := p.Now()
	ci := e.read(i, t)
	rtt := ci - e.reqC[i]
	if rtt < 0 {
		rtt = 0
	}
	band := e.band(from, i)
	trail, lead := core.Charge(ej, rtt, 0, e.age[i], band.Min, band.Max, ci)
	lo, hi := core.Offset(cj, trail, lead, ci)
	if !core.Consistent(lo, hi, e.errAt(i, t)) {
		// Disjoint from the own interval: at least one of the two servers
		// is incorrect; the reply is ignored (IM's DropInconsistent
		// pre-filter).
		e.inconsistent()
		return
	}
	// Age the running intersection by the local clock's progress since
	// the last contribution (core.Server's Age machinery, applied
	// incrementally), then fold the reply in.
	a, b := core.Widen(e.a[i], e.b[i], ci-e.lastC[i], e.age[i])
	e.a[i], e.b[i] = core.Fold(a, b, lo, hi)
	e.lastC[i] = ci
	e.used[i]++
}

// inconsistent counts one inconsistent observation.
func (e *Engine) inconsistent() {
	e.incons++
	e.obsIncons.Inc()
}

// close ends node i's round: it retires the round's tag, and a non-empty
// intersection resets the clock to its midpoint with the half-width as
// the inherited error (rule IM-2), then disciplines the clock's rate; an
// empty one marks the service inconsistent.
func (e *Engine) close(p *shard.Proc, i int32, tag uint32) {
	if tag != e.round[i] {
		return
	}
	e.round[i]++
	if e.used[i] == 0 {
		return
	}
	t := p.Now()
	ci := e.read(i, t)
	a, b := core.Widen(e.a[i], e.b[i], ci-e.lastC[i], e.age[i])
	if b < a {
		e.inconsistent()
		return
	}
	shift, eps := core.Midpoint(a, b, ci)
	e.discipline(i, t, ci+shift, eps)
	e.setClock(i, t, ci+shift, eps) // C continuous at the new rate
}

// --- sampling ---

// MeanError returns the mean reported maximum error E_i(t) over all
// nodes at virtual time t (which must be the engine's current time).
func (e *Engine) MeanError(t float64) float64 {
	var sum float64
	for i := 0; i < e.n; i++ {
		sum += e.errAt(int32(i), t)
	}
	return sum / float64(e.n)
}

// TierSkew is a per-node value averaged over each hierarchy tier: hubs
// sit on the backbone, gateways one uplink away, members one cluster hop
// further.
type TierSkew struct {
	Hub, Gateway, Member float64
}

// Skew returns the per-tier mean |C_i(t) - t|.
func (e *Engine) Skew(t float64) TierSkew {
	return e.tierMean(func(i int32) float64 { return math.Abs(e.read(i, t) - t) })
}

// DistanceSkew is the mean clock difference |C_i - C_j| between nodes a
// given network distance apart: in one cluster, in two clusters of one
// region, and in two regions. A distance the topology lacks reads zero.
type DistanceSkew struct {
	Cluster, Region, Service float64
}

// SkewByDistance pairs every node with the next member of its cluster,
// the same member of its region's next cluster, and the same node of the
// next region (each wrapping around), and returns each kind of pair's
// mean |C_i(t) - C_j(t)|: the skew-vs-distance gradient of a service
// whose servers synchronize with their cluster.
func (e *Engine) SkewByDistance(t float64) DistanceSkew {
	m, per := e.cfg.Topo.Members, e.cfg.Topo.Clusters*e.cfg.Topo.Members
	var s DistanceSkew
	for i := 0; i < e.n; i++ {
		c := e.read(int32(i), t)
		base, region := i-i%m, i-i%per
		s.Cluster += math.Abs(c - e.read(int32(base+(i-base+1)%m), t))
		s.Region += math.Abs(c - e.read(int32(region+(i-region+m)%per), t))
		s.Service += math.Abs(c - e.read(int32((i+per)%e.n), t))
	}
	n := float64(e.n)
	return DistanceSkew{Cluster: s.Cluster / n, Region: s.Region / n, Service: s.Service / n}
}

// ErrorByTier returns the per-tier mean reported error E_i(t). Every
// tier intersects the same LAN replies, so the tiers differ little, and
// a tier as small as ten hubs carries in its mean the age*tau sawtooth
// of its nodes' round phases, age each node's aging rate.
func (e *Engine) ErrorByTier(t float64) TierSkew {
	return e.tierMean(func(i int32) float64 { return e.errAt(i, t) })
}

// tierMean averages a per-node value over each hierarchy tier; a tier
// with no nodes reads zero.
func (e *Engine) tierMean(value func(i int32) float64) TierSkew {
	var sums [3]float64
	var counts [3]int
	for i := 0; i < e.n; i++ {
		id := int32(i)
		tier := 2
		if e.isHub(id) {
			tier = 0
		} else if e.isGateway(id) {
			tier = 1
		}
		sums[tier] += value(id)
		counts[tier]++
	}
	for tier, n := range counts {
		if n > 0 {
			sums[tier] /= float64(n)
		}
	}
	return TierSkew{Hub: sums[0], Gateway: sums[1], Member: sums[2]}
}

// Resets returns the total clock resets across all nodes.
func (e *Engine) Resets() uint64 { return e.resets }

// Inconsistencies returns the total inconsistent observations: replies
// and requests disjoint from their receiver's interval, and empty
// intersections.
func (e *Engine) Inconsistencies() uint64 { return e.incons }

// Late returns how many replies arrived after their round had closed:
// none while the collect window outlasts every round trip, which xi,
// twice the largest delay bound, guarantees.
func (e *Engine) Late() uint64 { return e.late }

// Fallbacks returns how many rate discipline steps found a drift bound
// that missed [-delta, delta] and left their node unsteered at delta:
// none while every drift is within its bound (DESIGN.md §3).
func (e *Engine) Fallbacks() uint64 { return e.fallbacks }

// Uncontained counts the nodes whose interval at virtual time t (the
// engine's current time) misses it, |C_i(t) - t| > E_i(t): none, by
// Theorems 1 and 5, while every drift is within its bound.
func (e *Engine) Uncontained(t float64) int {
	n := 0
	for i := int32(0); i < int32(e.n); i++ {
		if math.Abs(e.read(i, t)-t) > e.errAt(i, t) {
			n++
		}
	}
	return n
}

// Fingerprint folds every node's full state into one digest. Two runs
// with equal fingerprints walked through byte-identical final states.
func (e *Engine) Fingerprint() string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := 0; i < e.n; i++ {
		an := e.anchor[i]
		for _, v := range []float64{e.off[i], e.rate[i], e.eps[i], e.resetRef[i], e.age[i],
			e.a[i], e.b[i], an.T, an.C, an.E, an.drift} {
			mix(math.Float64bits(v))
		}
		mix(uint64(e.round[i]))
		mix(uint64(e.used[i]))
	}
	for _, v := range []uint64{e.resets, e.incons, e.late, e.fallbacks} {
		mix(v)
	}
	return fmt.Sprintf("%016x", h)
}
