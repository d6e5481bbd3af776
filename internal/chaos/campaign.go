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

// kindNames maps kinds to their reproducer-line tokens.
var kindNames = map[FaultKind]string{
	StopClock:   "stop",
	RaceClock:   "race",
	StickClock:  "stick",
	Falseticker: "false",
	LossBurst:   "loss",
	DelaySpike:  "delay",
	Partition:   "part",
	Crash:       "crash",
	Churn:       "churn",
	TwoFaced:    "twoface",
	Equivocate:  "equiv",
}

// String returns the kind's reproducer-line token.
func (k FaultKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// isClockFault reports whether the kind corrupts a server's clock (and so
// taints the server for the containment invariant).
func (k FaultKind) isClockFault() bool {
	switch k {
	case StopClock, RaceClock, StickClock, Falseticker:
		return true
	}
	return false
}

// isLyingFault reports whether the kind makes a server lie to its peers
// while its own bookkeeping stays honest — the Byzantine faults the
// f < n/3 containment argument budgets for.
func (k FaultKind) isLyingFault() bool {
	return k == TwoFaced || k == Equivocate
}

// targeted reports whether the kind applies to a single server.
func (k FaultKind) targeted() bool {
	switch k {
	case StopClock, RaceClock, StickClock, Falseticker, Crash, Churn, TwoFaced, Equivocate:
		return true
	}
	return false
}

// windowed reports whether the kind has a duration (an end event).
func (k FaultKind) windowed() bool {
	switch k {
	case LossBurst, DelaySpike, Partition, Crash, Churn, TwoFaced, Equivocate:
		return true
	}
	return false
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
// where they exercise the leave/rejoin protocol and the gossip path.
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
	switch eligible[rng.IntN(len(eligible))] {
	case StopClock:
		return Fault{Kind: StopClock, Target: rng.IntN(n), At: at}
	case RaceClock:
		return Fault{Kind: RaceClock, Target: rng.IntN(n), At: at,
			Param: roundParam(1 + sign*(0.02+rng.Float64()*0.08))}
	case StickClock:
		return Fault{Kind: StickClock, Target: rng.IntN(n), At: at}
	case Falseticker:
		return Fault{Kind: Falseticker, Target: rng.IntN(n), At: at,
			Param: sign * roundParam(0.5+rng.Float64()*9.5)}
	case LossBurst:
		return Fault{Kind: LossBurst, At: at, Dur: win,
			Param: roundParam(0.3 + rng.Float64()*0.65)}
	case DelaySpike:
		return Fault{Kind: DelaySpike, At: at, Dur: win,
			Param: roundParam(3 + rng.Float64()*17)}
	case Partition:
		groups := make([][]int, 2)
		for i := 0; i < n; i++ {
			g := rng.IntN(2)
			groups[g] = append(groups[g], i)
		}
		if len(groups[0]) == 0 || len(groups[1]) == 0 {
			// Degenerate split: carve off server 0.
			groups = [][]int{{0}, nil}
			for i := 1; i < n; i++ {
				groups[1] = append(groups[1], i)
			}
		}
		return Fault{Kind: Partition, At: at, Dur: win, Groups: groups}
	case Churn:
		return Fault{Kind: Churn, Target: rng.IntN(n), At: at, Dur: win}
	case TwoFaced:
		t := rng.IntN(n)
		return Fault{Kind: TwoFaced, Target: t, At: at, Dur: win,
			Peers: randomPeers(rng, n, t)}
	case Equivocate:
		t := rng.IntN(n)
		return Fault{Kind: Equivocate, Target: t, At: at, Dur: win,
			Peers: randomPeers(rng, n, t)}
	default:
		return Fault{Kind: Crash, Target: rng.IntN(n), At: at, Dur: win}
	}
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
		if kindNames[f.Kind] == "" {
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, f.Kind)
		}
		if f.Kind.targeted() && (f.Target < 0 || f.Target >= c.N) {
			return fmt.Errorf("chaos: fault %d: target %d outside [0, %d)", i, f.Target, c.N)
		}
		if f.At < 0 || f.At > c.Dur {
			return fmt.Errorf("chaos: fault %d: start %v outside [0, %v]", i, f.At, c.Dur)
		}
		if f.Kind.windowed() && !(f.Dur > 0) {
			return fmt.Errorf("chaos: fault %d: %v needs a positive duration", i, f.Kind)
		}
		if f.Kind.windowed() && f.At+f.Dur > c.Dur {
			return fmt.Errorf("chaos: fault %d: window [%v, %v] overruns duration %v",
				i, f.At, f.At+f.Dur, c.Dur)
		}
		switch f.Kind {
		case LossBurst:
			if !(f.Param > 0) || f.Param >= 1 {
				return fmt.Errorf("chaos: fault %d: loss probability %v outside (0, 1)", i, f.Param)
			}
		case DelaySpike:
			if !(f.Param > 0) {
				return fmt.Errorf("chaos: fault %d: non-positive delay factor %v", i, f.Param)
			}
		case RaceClock:
			if !(f.Param > 0) {
				return fmt.Errorf("chaos: fault %d: non-positive racing rate %v", i, f.Param)
			}
		case Partition:
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
		case TwoFaced, Equivocate:
			if len(f.Peers) != c.N {
				return fmt.Errorf("chaos: fault %d: %v wants %d per-peer offsets, got %d",
					i, f.Kind, c.N, len(f.Peers))
			}
			for j, off := range f.Peers {
				if math.IsNaN(off) || math.IsInf(off, 0) {
					return fmt.Errorf("chaos: fault %d: non-finite peer offset %v for peer %d", i, off, j)
				}
			}
			if f.Kind == Equivocate && !c.Mem {
				return fmt.Errorf("chaos: fault %d: equivocation needs membership gossip (mem=1)", i)
			}
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

// clockFaultsFor collects the clock faults aimed at server i, in schedule
// order, for wrapper construction.
func clockFaultsFor(faults []Fault, i int) []Fault {
	var out []Fault
	for _, f := range faults {
		if f.Target == i {
			switch f.Kind {
			case StopClock, RaceClock, StickClock:
				out = append(out, f)
			}
		}
	}
	return out
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
		wraps := clockFaultsFor(c.Faults, i)
		driftI := drift
		specs[i] = service.ServerSpec{
			Delta:         delta,
			InitialOffset: offset,
			InitialError:  initialError,
			SyncEvery:     c.Sync,
			Recovery:      c.Recovery,
			NewClock: func(t, value float64) clock.Clock {
				var clk clock.Clock = clock.NewDrifting(t, value, driftI)
				for _, f := range wraps {
					switch f.Kind {
					case StopClock:
						clk = clock.NewStopped(clk, f.At)
					case RaceClock:
						clk = clock.NewRacing(clk, f.At, f.Param)
					case StickClock:
						clk = clock.NewStuck(clk, f.At)
					}
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
