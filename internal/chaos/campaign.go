// Package chaos is the randomized conformance harness for the paper's
// theorems: it layers fault campaigns — the Section 1.1 clock failures
// (stopped, racing, stuck-on-set), falsetickers, message-loss bursts,
// delay spikes beyond the assumed xi bound, partitions, and server
// crash/restart — on top of the deterministic simulator, while an
// always-on invariant monitor asserts on every synchronization pass that
//
//   - a correct (non-faulty, untainted) server's interval [C-E, C+E]
//     contains the true time (Theorems 1 and 5),
//   - an MM pass never increases the server's maximum error (rule MM-2),
//   - an IM-family pass either resets or flags inconsistency when it had
//     replies (rules IM-1/IM-2),
//   - between passes the error grows by at most delta per clock second
//     (rule MM-1's deterioration bound),
//   - the monotonic-clock wrapper never steps backward,
//   - the correct servers' intervals always share a common point,
//   - while no clock fault has begun, every server's hybrid logical
//     clock keeps its logical counter under a small ceiling (walls
//     advance between events, so causality rarely needs the tiebreak),
//     and
//   - with the transaction workload enabled (Txn), commits are
//     externally consistent: a transaction that completes before
//     another starts carries the strictly smaller timestamp, asserted
//     while both involved servers are untainted.
//
// Every campaign is a pure function of a seed plus a fault schedule, so a
// failing campaign is a replayable artifact: Shrink minimizes it (drop
// faults, halve windows, bisect the schedule) to a one-line reproducer
// (Campaign.String / Parse) that `timesim -chaos -replay` re-executes
// bit-identically, and minimized reproducers live on as regression cases
// under internal/chaos/corpus.
package chaos

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/interval"
	"disttime/internal/service"
	"disttime/internal/simnet"
)

// FaultKind enumerates the injectable faults.
type FaultKind uint8

// The fault kinds. The first three are the paper's Section 1.1 clock
// failures; Falseticker is the Figure 3 hazard (a clock that lies while
// its server keeps answering); the rest are network and process faults.
const (
	StopClock   FaultKind = iota + 1 // clock freezes at At (oscillator dies)
	RaceClock                        // clock advances Param clock-seconds per real second from At
	StickClock                       // clock refuses Set from At onward
	Falseticker                      // clock register jumps by Param at At, bookkeeping unaware
	LossBurst                        // every link drops messages with probability Param in [At, At+Dur)
	DelaySpike                       // every link's delays are scaled by Param in [At, At+Dur)
	Partition                        // network splits into Groups in [At, At+Dur)
	Crash                            // server Target is down in [At, At+Dur)
	Churn                            // server Target leaves voluntarily at At and rejoins at At+Dur
	TwoFaced                         // server Target answers each peer from a per-peer skewed register in [At, At+Dur)
	Equivocate                       // server Target gossips conflicting <C,E> pairs per peer in [At, At+Dur)
)

// kindSpec is one row of the fault-kind table: everything the harness
// knows about a kind. Every other place reads the row, so a new kind is a
// new row plus a place in Generate's eligible list.
type kindSpec struct {
	// name is the kind's reproducer-line token.
	name string
	// The shape of a fault of the kind: it acts on server Target, it ends
	// at At+Dur, it carries partition Groups or per-peer Peers offsets, and
	// it needs membership gossip (mem=1).
	targeted, windowed, groups, peers, needsMem bool
	// draw, when set, is Generate's draw of Param given the fault's random
	// sign, and marks a kind that takes a Param; Validate holds that Param
	// inside the open interval (lo, hi), which rules out NaN and infinity.
	draw   func(rng *rand.Rand, sign float64) float64
	lo, hi float64
	// clock marks a kind that corrupts the target's clock, which taints
	// the server for the containment invariant.
	clock bool
	// wrap arms a clock failure inside the target's clock at build time;
	// start and end are the simulator events install schedules at At and,
	// for a windowed kind, at At+Dur.
	wrap       func(clk clock.Clock, f Fault) clock.Clock
	start, end func(e *engine, f Fault)
}

// kinds is the fault-kind table, indexed by FaultKind.
var kinds = [...]kindSpec{
	StopClock: {name: "stop", targeted: true, clock: true,
		wrap: func(clk clock.Clock, f Fault) clock.Clock { return clock.NewStopped(clk, f.At) }},
	RaceClock: {name: "race", targeted: true, clock: true, lo: 0, hi: math.Inf(1),
		draw: func(rng *rand.Rand, sign float64) float64 { return roundParam(1 + sign*(0.02+rng.Float64()*0.08)) },
		wrap: func(clk clock.Clock, f Fault) clock.Clock { return clock.NewRacing(clk, f.At, f.Param) }},
	StickClock: {name: "stick", targeted: true, clock: true,
		wrap: func(clk clock.Clock, f Fault) clock.Clock { return clock.NewStuck(clk, f.At) }},
	Falseticker: {name: "false", targeted: true, clock: true, lo: math.Inf(-1), hi: math.Inf(1),
		draw: func(rng *rand.Rand, sign float64) float64 { return sign * roundParam(0.5+rng.Float64()*9.5) },
		// The clock register jumps without the server's bookkeeping
		// noticing: the server keeps answering with its usual <C, E> pair,
		// whose interval now lies (the Figure 3 hazard).
		start: func(e *engine, f Fault) {
			clk := e.svc.Nodes[f.Target].Server.Clock()
			clk.Set(f.At, clk.Read(f.At)+f.Param)
		}},
	LossBurst: {name: "loss", windowed: true, lo: 0, hi: 1,
		draw:  func(rng *rand.Rand, _ float64) float64 { return roundParam(0.3 + rng.Float64()*0.65) },
		start: (*engine).rewire, end: (*engine).rewire},
	DelaySpike: {name: "delay", windowed: true, lo: 0, hi: math.Inf(1),
		draw:  func(rng *rand.Rand, _ float64) float64 { return roundParam(3 + rng.Float64()*17) },
		start: (*engine).rewire, end: (*engine).rewire},
	Partition: {name: "part", windowed: true, groups: true,
		start: func(e *engine, f Fault) {
			groups := make([][]simnet.NodeID, len(f.Groups))
			for g, members := range f.Groups {
				for _, idx := range members {
					groups[g] = append(groups[g], e.svc.Nodes[idx].NetID)
				}
			}
			e.svc.Net.Partition(groups...)
		},
		end: func(e *engine, _ Fault) { e.svc.Net.Heal() }},
	Crash: {name: "crash", targeted: true, windowed: true,
		start: func(e *engine, f Fault) { e.svc.Crash(f.Target) },
		end:   func(e *engine, f Fault) { e.svc.Restart(f.Target) }},
	// With membership enabled the departure is announced and the rejoin
	// is a fresh incarnation; without it Leave/Rejoin degrade to
	// Crash/Restart.
	Churn: {name: "churn", targeted: true, windowed: true,
		start: func(e *engine, f Fault) { e.svc.Leave(f.Target) },
		end:   func(e *engine, f Fault) { e.svc.Rejoin(f.Target) }},
	// The server answers each peer from a per-destination skewed register;
	// its own bookkeeping never lies, only the replies do.
	TwoFaced: {name: "twoface", targeted: true, windowed: true, peers: true,
		start: func(e *engine, f Fault) { e.svc.SetTwoFaced(f.Target, f.Peers) },
		end:   func(e *engine, f Fault) { e.svc.ClearTwoFaced(f.Target) }},
	// The server's pushed digests advertise conflicting <C, E> pairs per
	// destination.
	Equivocate: {name: "equiv", targeted: true, windowed: true, peers: true, needsMem: true,
		start: func(e *engine, f Fault) { e.svc.SetEquivocate(f.Target, f.Peers) },
		end:   func(e *engine, f Fault) { e.svc.ClearEquivocate(f.Target) }},
}

// spec returns the kind's row, or nil for a value outside the table.
func (k FaultKind) spec() *kindSpec {
	if k == 0 || int(k) >= len(kinds) {
		return nil
	}
	return &kinds[k]
}

// String returns the kind's reproducer-line token.
func (k FaultKind) String() string {
	if s := k.spec(); s != nil {
		return s.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one scheduled fault.
type Fault struct {
	// Kind selects the fault.
	Kind FaultKind
	// Target is the server index for targeted kinds.
	Target int
	// At is the virtual time the fault begins.
	At float64
	// Dur is the window length for windowed kinds (clock faults are
	// permanent, as in Section 1.1: a dead oscillator stays dead).
	Dur float64
	// Param is the kind-specific magnitude: racing rate, falseticker
	// jump, loss probability, or delay multiplier.
	Param float64
	// Groups is the partition layout (server indices) for Partition.
	Groups [][]int
	// Peers is the per-destination skew vector for TwoFaced and
	// Equivocate: the lie told to server j is offset Peers[j]. It must
	// have exactly N entries; Peers[Target] is conventionally zero (a
	// server does not lie to itself).
	Peers []float64
}

// Campaign is one self-contained chaos run: everything the run depends on
// is derived deterministically from these fields, so equal campaigns
// always produce equal verdicts.
type Campaign struct {
	// Seed drives the simulator PRNG, the sync stagger, the link delay
	// draws, and the per-server spec derivation.
	Seed uint64
	// N is the number of servers.
	N int
	// Topo is the topology name: mesh, ring, line, or star.
	Topo string
	// FnName is the synchronization function: MM, IM, IMdrop, selectIM,
	// or byzIM (the Byzantine-tolerant envelope variant).
	FnName string
	// Recovery enables the Section 3 recovery heuristic on every server.
	Recovery bool
	// Dur is the campaign length in virtual seconds.
	Dur float64
	// Sync is every server's synchronization period.
	Sync float64
	// Mem enables dynamic membership on every server: rosters, gossip,
	// the drift-aware failure detector, and roster-driven polling.
	// Churn faults exercise the full leave/rejoin protocol when Mem is
	// set; without it they degrade to crash/restart (the only departure
	// a static topology can express).
	Mem bool
	// Txn enables the commit-wait transaction workload (internal/txn):
	// one client per server stamps transactions with hybrid logical clock
	// timestamps and commits after a TrueTime-style commit-wait, while
	// the monitor checks external consistency online — a transaction that
	// completes before another starts must carry the smaller timestamp,
	// asserted only while both involved servers' clocks are untainted.
	Txn bool
	// Faults is the schedule, ordered by At.
	Faults []Fault
}

// Campaign-wide constants: the nominal delay model is the paper's
// zero-minimum uniform with a 0.05 s one-way bound (xi = 0.1 s), and the
// collection window is pinned to just over the nominal xi — so a delay
// spike genuinely violates the assumed bound instead of stretching the
// window with it.
const (
	nominalDelayMax = 0.05
	collectWindow   = 2 * nominalDelayMax * 1.05
	initialError    = 0.05
)

func nominalDelay() simnet.DelayModel { return simnet.Uniform{Min: 0, Max: nominalDelayMax} }

// specFor derives server i's physical parameters from the campaign seed
// alone (independent of the fault schedule), so shrinking a schedule
// never changes who the servers are.
func specFor(seed uint64, i int) (delta, drift, offset float64) {
	rng := rand.New(rand.NewPCG(
		seed^0x5bf036353b1cd3a9,
		uint64(i)*0x9e3779b97f4a7c15+0x243f6a8885a308d3))
	delta = 5e-5 + rng.Float64()*4.5e-4
	drift = (rng.Float64()*2 - 1) * 0.9 * delta // strictly inside the claimed bound
	offset = (rng.Float64()*2 - 1) * 0.02
	return delta, drift, offset
}

// grid snaps x to the campaign's 5-second scheduling grid (shrinking
// stays on-grid so reproducer lines remain short and exact).
func grid(x float64) float64 { return math.Round(x/5) * 5 }

// roundParam rounds magnitudes to 1e-4 so reproducer lines are compact
// and round-trip losslessly through decimal formatting.
func roundParam(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// Generate derives a randomized campaign from a seed. The same seed
// always yields the same campaign.
func Generate(seed uint64) Campaign {
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	c := Campaign{
		Seed: seed,
		N:    3 + rng.IntN(5),
		Dur:  300 + 100*float64(rng.IntN(7)),
		Sync: 20 + 10*float64(rng.IntN(5)),
	}
	topos := []string{"mesh", "mesh", "mesh", "ring", "star"}
	c.Topo = topos[rng.IntN(len(topos))]
	fns := []string{"MM", "IM", "IMdrop", "selectIM", "byzIM"}
	c.FnName = fns[rng.IntN(len(fns))]
	c.Recovery = rng.IntN(2) == 0
	c.Mem = rng.IntN(2) == 0
	for nf := rng.IntN(6); nf > 0; nf-- {
		c.Faults = append(c.Faults, randomFault(rng, c.N, c.Dur, c.Mem))
	}
	sortFaults(c.Faults)
	return c
}

// randomPeers draws a per-destination skew vector: every peer except the
// liar itself gets an independent signed offset of magnitude 0.02..0.12
// seconds, rounded so the vector round-trips through the reproducer codec.
func randomPeers(rng *rand.Rand, n, target int) []float64 {
	const lo, hi = 0.02, 0.12
	peers := make([]float64, n)
	for j := range peers {
		if j == target {
			continue
		}
		sign := 1.0
		if rng.IntN(2) == 0 {
			sign = -1
		}
		peers[j] = sign * roundParam(lo+rng.Float64()*(hi-lo))
	}
	return peers
}

// randomFault draws one fault with on-grid times inside (0, dur). Churn
// and Equivocate faults are drawn only for membership-enabled campaigns,
// where they exercise the leave/rejoin protocol and the gossip path. The
// target, parameter, groups and offsets are drawn in that order, so a
// seed keeps its campaign.
func randomFault(rng *rand.Rand, n int, dur float64, mem bool) Fault {
	at := 5 * float64(1+rng.IntN(int(dur/5)-2))
	win := 5 * float64(2+rng.IntN(19)) // 10..100 s
	if at+win > dur {
		win = dur - at
	}
	sign := 1.0
	if rng.IntN(2) == 0 {
		sign = -1
	}
	eligible := []FaultKind{StopClock, RaceClock, StickClock, Falseticker,
		LossBurst, DelaySpike, Partition, Crash, TwoFaced}
	if mem {
		eligible = append(eligible, Churn, Equivocate)
	}
	kind := eligible[rng.IntN(len(eligible))]
	k := &kinds[kind]
	f := Fault{Kind: kind, At: at}
	if k.windowed {
		f.Dur = win
	}
	if k.targeted {
		f.Target = rng.IntN(n)
	}
	if k.draw != nil {
		f.Param = k.draw(rng, sign)
	}
	if k.groups {
		f.Groups = make([][]int, 2)
		for i := 0; i < n; i++ {
			g := rng.IntN(2)
			f.Groups[g] = append(f.Groups[g], i)
		}
		if len(f.Groups[0]) == 0 || len(f.Groups[1]) == 0 {
			// Degenerate split: carve off server 0.
			f.Groups = [][]int{{0}, nil}
			for i := 1; i < n; i++ {
				f.Groups[1] = append(f.Groups[1], i)
			}
		}
	}
	if k.peers {
		f.Peers = randomPeers(rng, n, f.Target)
	}
	return f
}

// sortFaults orders the schedule by start time, breaking ties by kind
// then target so encoding is canonical.
func sortFaults(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool {
		if !interval.SameEdge(fs[i].At, fs[j].At) {
			return fs[i].At < fs[j].At
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		return fs[i].Target < fs[j].Target
	})
}

// Validate checks that the campaign is well-formed (Parse accepts
// arbitrary text, so the checks run before every build).
func (c Campaign) Validate() error {
	if c.N < 2 || c.N > 64 {
		return fmt.Errorf("chaos: server count %d outside [2, 64]", c.N)
	}
	if !(c.Dur > 0) || c.Dur > 1e6 {
		return fmt.Errorf("chaos: duration %v outside (0, 1e6]", c.Dur)
	}
	if !(c.Sync > 0) || c.Sync > c.Dur {
		return fmt.Errorf("chaos: sync period %v outside (0, dur]", c.Sync)
	}
	if _, err := topologyFor(c.Topo); err != nil {
		return err
	}
	if _, err := fnFor(c.FnName, c.N); err != nil {
		return err
	}
	for i, f := range c.Faults {
		k := f.Kind.spec()
		if k == nil {
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, f.Kind)
		}
		if k.targeted && (f.Target < 0 || f.Target >= c.N) {
			return fmt.Errorf("chaos: fault %d: target %d outside [0, %d)", i, f.Target, c.N)
		}
		if !(f.At >= 0 && f.At <= c.Dur) {
			return fmt.Errorf("chaos: fault %d: start %v outside [0, %v]", i, f.At, c.Dur)
		}
		if k.windowed && !(f.Dur > 0) {
			return fmt.Errorf("chaos: fault %d: %v needs a positive duration", i, f.Kind)
		}
		if k.windowed && f.At+f.Dur > c.Dur {
			return fmt.Errorf("chaos: fault %d: window [%v, %v] overruns duration %v",
				i, f.At, f.At+f.Dur, c.Dur)
		}
		if k.draw != nil && !(k.lo < f.Param && f.Param < k.hi) {
			return fmt.Errorf("chaos: fault %d: %v parameter %v outside (%v, %v)", i, f.Kind, f.Param, k.lo, k.hi)
		}
		if k.groups {
			if len(f.Groups) == 0 {
				return fmt.Errorf("chaos: fault %d: partition without groups", i)
			}
			for _, g := range f.Groups {
				for _, idx := range g {
					if idx < 0 || idx >= c.N {
						return fmt.Errorf("chaos: fault %d: partition member %d outside [0, %d)", i, idx, c.N)
					}
				}
			}
		}
		if k.peers {
			if len(f.Peers) != c.N {
				return fmt.Errorf("chaos: fault %d: %v wants %d per-peer offsets, got %d",
					i, f.Kind, c.N, len(f.Peers))
			}
			for j, off := range f.Peers {
				if math.IsNaN(off) || math.IsInf(off, 0) {
					return fmt.Errorf("chaos: fault %d: non-finite peer offset %v for peer %d", i, off, j)
				}
			}
		}
		if k.needsMem && !c.Mem {
			return fmt.Errorf("chaos: fault %d: %v needs membership gossip (mem=1)", i, f.Kind)
		}
	}
	return nil
}

// topologyFor maps a topology name to the service constant.
func topologyFor(name string) (service.Topology, error) {
	switch name {
	case "mesh":
		return service.FullMesh, nil
	case "ring":
		return service.Ring, nil
	case "line":
		return service.Line, nil
	case "star":
		return service.Star, nil
	}
	return 0, fmt.Errorf("chaos: unknown topology %q", name)
}

// fnFor maps a synchronization-function name to its implementation. The
// server count sizes byzIM's lie budget: F = floor((n-1)/3) is fixed at
// build so the coverage floor is per-campaign, not per-round (a per-round
// budget is unsound under message loss — see core.ByzIM).
func fnFor(name string, n int) (core.SyncFunc, error) {
	switch name {
	case "MM":
		return core.MM{}, nil
	case "IM":
		return core.IM{}, nil
	case "IMdrop":
		return core.IM{DropInconsistent: true}, nil
	case "selectIM":
		return core.SelectIM{}, nil
	case "byzIM":
		return core.ByzIM{F: (n - 1) / 3}, nil
	}
	return nil, fmt.Errorf("chaos: unknown sync function %q", name)
}

// build assembles the service for the campaign. override, when non-nil,
// replaces the synchronization function on every server — the hook the
// harness's own self-tests use to inject deliberately broken rules and
// prove the monitor catches them.
func (c Campaign) build(override core.SyncFunc) (*service.Service, error) {
	topo, err := topologyFor(c.Topo)
	if err != nil {
		return nil, err
	}
	fn := override
	if fn == nil {
		if fn, err = fnFor(c.FnName, c.N); err != nil {
			return nil, err
		}
	}
	specs := make([]service.ServerSpec, c.N)
	for i := range specs {
		delta, drift, offset := specFor(c.Seed, i)
		var wraps []Fault // the clock failures aimed at server i, in schedule order
		for _, f := range c.Faults {
			if f.Target == i && kinds[f.Kind].wrap != nil {
				wraps = append(wraps, f)
			}
		}
		specs[i] = service.ServerSpec{
			Delta:         delta,
			InitialOffset: offset,
			InitialError:  initialError,
			SyncEvery:     c.Sync,
			Recovery:      c.Recovery,
			NewClock: func(t, value float64) clock.Clock {
				var clk clock.Clock = clock.NewDrifting(t, value, drift)
				for _, f := range wraps {
					clk = kinds[f.Kind].wrap(clk, f)
				}
				return clk
			},
		}
	}
	cfg := service.Config{
		Seed:       c.Seed,
		Delay:      nominalDelay(),
		Topology:   topo,
		Fn:         fn,
		Servers:    specs,
		CollectFor: collectWindow,
	}
	if c.Mem {
		// Gossip several times per sync period so rosters converge well
		// within the campaign; the detector's deadline follows from the
		// period via member.DetectorConfig, so eviction windows stay
		// small relative to Dur.
		cfg.Members = &service.MemberConfig{GossipEvery: math.Max(2, c.Sync/5)}
	}
	return service.New(cfg)
}
