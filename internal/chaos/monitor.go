package chaos

import (
	"fmt"
	"math"
	"slices"

	"disttime/internal/core"
	"disttime/internal/interval"
	"disttime/internal/service"
)

// Violation is one observed break of a theorem invariant.
type Violation struct {
	// T is the virtual time of the observation.
	T float64
	// Node is the offending server, or -1 for service-wide invariants.
	Node int
	// Invariant names the broken property: containment, byz-containment,
	// mm-monotonic, error-growth, im-decide, re-anchor, monotonic-clock,
	// consistency, hlc-bound, or txn-external-consistency.
	Invariant string
	// Detail is a human-readable account of the observation.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	who := "service"
	if v.Node >= 0 {
		who = fmt.Sprintf("server %d", v.Node)
	}
	return fmt.Sprintf("t=%.6g %s %s: %s", v.T, who, v.Invariant, v.Detail)
}

// Monitor is the always-on invariant checker. It attaches to the service
// through AddSyncDetail (per-pass assertions) and a periodic probe event
// (containment, consistency, and the monotonic-clock rate floor between
// passes). All probes are read-only with respect to the protocol state,
// so attaching a monitor never changes what the service does — the same
// seed and schedule produce the same trajectory monitored or not.
type Monitor struct {
	svc    *service.Service
	fnName string
	tol    float64

	// clockFaultAt[i] is the onset of server i's earliest clock fault
	// (+Inf when its clock is never faulted); tainted[i] reports that the
	// server's interval can no longer be trusted to contain true time —
	// either its own clock is faulted or it set its clock while a faulted
	// or tainted server was within reach. Containment (Theorems 1/5) is
	// asserted only for untainted servers; the pass-local invariants
	// (MM monotonicity, IM decide-or-flag) hold for every server and stay
	// on everywhere.
	clockFaultAt []float64
	tainted      []bool

	// ownClockFaultAt[i] is clockFaultAt[i] before two-faced onsets are
	// folded in: a two-faced server's own clock is honest, so the
	// monotonic-clock floor stays on for it.
	ownClockFaultAt []float64

	// byz marks the strict f < n/3 containment regime: the campaign runs
	// byzIM and its liars (servers with a clock fault or a two-faced
	// window — each corrupts what the server tells peers) fit the
	// envelope's budget, so adopting a lie can no longer poison a correct
	// server. Taint does NOT propagate in this mode — a reset within reach
	// of a liar must still land on true time, and the (byz-containment)
	// assertion stays on to prove it. Outside the regime two-faced onsets
	// fold into clockFaultAt and the conservative taint machinery governs.
	// Equivocation never enters the budget: it corrupts gossip metadata,
	// not time replies, so interval containment is not at stake.
	byz bool

	// minSlack is the smallest signed containment margin seen across all
	// asserted containment checks: min(t-Lo, Hi-t) of the un-grown
	// interval. Negative slack is a violation; small positive slack is the
	// adversarial search's gradient toward one.
	minSlack float64

	// hlcArmedUntil is the earliest clock-fault (or, outside the byz
	// regime, two-faced) onset anywhere in the service; the hlc-bound
	// invariant is asserted only before it. One corrupted wall propagates
	// to every honest server through Update, and a wall running ahead of
	// physical time pins the logical counter into tiebreak territory — so
	// the boundedness claim is service-wide or nothing.
	hlcArmedUntil float64

	last []passState
	// probedAt is the time of the previous probe (NaN before the first);
	// probeC and probeResets are each server's served C and reset count
	// then.
	probedAt    float64
	probeC      []float64
	probeResets []int
	ivsScratch  []interval.Interval

	violations []Violation
	maxRecord  int
	sink       *obsSink
}

// check counts one evaluated invariant assertion in the attached sink
// (inert without a registry) and returns true so it can gate the
// assertion expression inline.
func (m *Monitor) check() bool {
	m.sink.invariantChecks.Inc()
	return true
}

// hlcCeiling bounds the logical counter while the hlc-bound invariant
// is armed. Generated campaigns run at most 8 servers, so even a full
// collect window of same-wall deliveries stays far below it; reaching
// the ceiling means walls stopped advancing between events without any
// injected clock fault.
const hlcCeiling = 64

// passState is the per-server after-image of the last synchronization
// pass, for the inter-pass error-growth bound: its reading, its reset
// count, and the aging rate it left in force (core.Pass's Rate.Age).
// recovered marks a server that has not reset since a recovery's adopt,
// for the re-anchor invariant.
type passState struct {
	valid     bool
	c, e, age float64
	resets    int
	recovered bool
}

// newMonitor attaches a monitor to a freshly built, un-run service. The
// sink receives invariant-check and violation counters; pass an inert
// sink (or nil registry behind it) to run unobserved.
func newMonitor(svc *service.Service, c Campaign, sink *obsSink) *Monitor {
	if sink == nil {
		sink = &obsSink{}
	}
	n := len(svc.Nodes)
	m := &Monitor{
		svc:          svc,
		sink:         sink,
		fnName:       c.FnName,
		tol:          1e-6,
		clockFaultAt: make([]float64, n),
		tainted:      make([]bool, n),
		last:         make([]passState, n),
		probedAt:     math.NaN(),
		probeC:       make([]float64, n),
		probeResets:  make([]int, n),
		maxRecord:    16,
		minSlack:     math.Inf(1),
	}
	for i := range m.clockFaultAt {
		m.clockFaultAt[i] = math.Inf(1)
	}
	for _, f := range c.Faults {
		if kinds[f.Kind].clock && f.At < m.clockFaultAt[f.Target] {
			m.clockFaultAt[f.Target] = f.At
		}
	}
	m.ownClockFaultAt = slices.Clone(m.clockFaultAt)
	// Count the liars: servers whose replies can deviate from their honest
	// interval, whether through a corrupted clock or a two-faced window.
	liarAt := slices.Clone(m.clockFaultAt)
	liars := 0
	for _, f := range c.Faults {
		if f.Kind == TwoFaced && f.At < liarAt[f.Target] {
			liarAt[f.Target] = f.At
		}
	}
	for _, at := range liarAt {
		if !math.IsInf(at, 1) {
			liars++
		}
	}
	m.byz = c.FnName == "byzIM" && 3*liars < c.N
	if !m.byz {
		// Against a non-Byzantine synchronization function (or past the
		// budget) a two-faced server poisons like a falseticker: fold its
		// onset into the taint clock.
		for i, at := range liarAt {
			if at < m.clockFaultAt[i] {
				m.clockFaultAt[i] = at
			}
		}
	}
	m.hlcArmedUntil = math.Inf(1)
	for _, at := range m.clockFaultAt {
		if at < m.hlcArmedUntil {
			m.hlcArmedUntil = at
		}
	}
	svc.AddSyncDetail(m.observe)
	probeEvery := math.Max(1, c.Sync/4)
	svc.Sim.Every(probeEvery, m.probe)
	return m
}

// MinSlack returns the tightest containment margin asserted so far (+Inf
// when no containment check has run yet).
func (m *Monitor) MinSlack() float64 { return m.minSlack }

// Trusted reports whether server node's interval can currently be
// trusted to contain true time: its clock is unfaulted and it has not
// adopted state from a corrupted server. The transaction workload's
// external-consistency check gates on it — commit-wait's ordering
// argument (package txn) rests on containment of both involved
// servers, which the theorems only promise while a server is
// untainted.
func (m *Monitor) Trusted(node int) bool {
	m.refreshTaint(m.svc.Sim.Now())
	return !m.tainted[node]
}

// containmentName is the invariant label for containment checks:
// "byz-containment" in the f < n/3 regime (where the claim is strictly
// stronger — no taint exemptions), "containment" otherwise. Stable names
// matter: Shrink preserves the first violation's invariant across
// minimization.
func (m *Monitor) containmentName() string {
	if m.byz {
		return "byz-containment"
	}
	return "containment"
}

// noteSlack folds one asserted containment margin into the running
// minimum.
func (m *Monitor) noteSlack(iv interval.Interval, t float64) {
	if s := math.Min(t-iv.Lo, iv.Hi-t); s < m.minSlack {
		m.minSlack = s
	}
}

// report records a violation, capped so a broken invariant in a long
// campaign cannot flood memory.
func (m *Monitor) report(t float64, node int, invariant, detail string) {
	m.sink.violations.Inc()
	if len(m.violations) >= m.maxRecord {
		return
	}
	m.violations = append(m.violations, Violation{T: t, Node: node, Invariant: invariant, Detail: detail})
}

// refreshTaint marks servers whose clock fault has begun.
func (m *Monitor) refreshTaint(t float64) {
	for i, at := range m.clockFaultAt {
		if !m.tainted[i] && t >= at {
			m.tainted[i] = true
		}
	}
}

// taintedNeighbor reports whether any server linked to node is tainted.
// Partitions are ignored deliberately: messages in flight cross a
// partition that forms after they were sent, so reachability must be
// judged on the topology.
func (m *Monitor) taintedNeighbor(node int) bool {
	for _, id := range m.svc.Net.Neighbors(m.svc.Nodes[node].NetID) {
		if m.tainted[int(id)] {
			return true
		}
	}
	return false
}

// observe asserts the per-pass invariants on the pass's record.
func (m *Monitor) observe(p core.Pass) {
	t, node := p.T, p.Node
	m.refreshTaint(t)
	// Taint propagation: the pass set the clock (synchronization, recovery,
	// or adaptation) while a corrupted server was within reach, so the
	// adopted value may be poisoned. Conservative by construction — an
	// honest reply from a neighbor tainted later in the window still
	// taints — which keeps the containment assertion sound.
	if p.Sets > 0 && !m.byz && !m.tainted[node] && m.taintedNeighbor(node) {
		m.tainted[node] = true
	}
	srv := m.svc.Nodes[node].Server
	resets := srv.Resets()
	// Rule MM-2: an MM pass never increases the maximum error. Recovery
	// (rule of Section 3) legitimately adopts a worse third server, so a
	// pass that recovered is exempt. The bound holds even for faulted
	// clocks: the predicate compares against the server's own current
	// error, whatever the oscillator is doing.
	if m.fnName == "MM" && !p.Recovered && m.check() && p.After.E > p.Before.E+m.tol {
		m.report(t, node, "mm-monotonic",
			fmt.Sprintf("MM pass grew max error %.9g -> %.9g", p.Before.E, p.After.E))
	}
	st := m.last[node]
	// Rule MM-1's deterioration bound: between passes (no resets in
	// between) the error grows by at most the aging rate the previous
	// pass left in force per clock second, delta unless the rate
	// discipline steers the clock. The allowance is rule MM-1's own
	// arithmetic, core.AgedError, from the previous pass's E.
	if st.valid && !m.tainted[node] && resets-p.Sets == st.resets && m.check() {
		if allowed := core.AgedError(st.e, p.Before.C-st.c, st.age); p.Before.E > allowed+m.tol {
			m.report(t, node, "error-growth",
				fmt.Sprintf("error grew %.9g -> %.9g over %.6g clock seconds (aging rate %.3g)",
					st.e, p.Before.E, p.Before.C-st.c, st.age))
		}
	}
	// The rate discipline's re-anchor: a recovery's adopt leaves the
	// server no reading of its own to measure its rate from, so the
	// first reset after it may only anchor. It holds of every server,
	// faulted or not: it is the pass's bookkeeping, not its clock.
	if st.recovered && p.Result.Reset && m.check() && (p.Rate.Steered || p.Fallback) {
		m.report(t, node, "re-anchor",
			fmt.Sprintf("first reset after a recovery steered at %.3g (fallback %t) from an anchor it should have dropped",
				p.Rate.Centre, p.Fallback))
	}
	// Rules IM-1/IM-2: an intersection pass with replies either resets
	// (non-empty intersection) or flags inconsistency.
	if m.fnName != "MM" && p.Replies > 0 && m.check() && !p.Result.Reset && len(p.Result.Inconsistent) == 0 {
		m.report(t, node, "im-decide",
			fmt.Sprintf("%d replies produced neither a reset nor an inconsistency flag", p.Replies))
	}
	// Theorems 1/5: a correct server's interval contains true time.
	if !m.tainted[node] && m.check() {
		iv := srv.Interval(t)
		m.noteSlack(iv, t)
		if !iv.Grow(m.tol).Contains(t) {
			m.report(t, node, m.containmentName(),
				fmt.Sprintf("interval %v excludes true time %.6g (off by %.3g)", iv, t, offBy(iv, t)))
		}
	}
	m.last[node] = passState{valid: true, c: p.After.C, e: p.After.E, age: p.Rate.Age, resets: resets,
		recovered: p.Recovered || (st.recovered && !p.Result.Reset)}
}

// probe asserts the service-wide invariants between passes.
func (m *Monitor) probe() {
	t := m.svc.Sim.Now()
	m.refreshTaint(t)
	ivs := m.ivsScratch[:0]
	for i, node := range m.svc.Nodes {
		// Rule MM-1's rate floor on the C each server serves: between two
		// probes with no reset, and before the server's clock fault, C
		// advances by at least (1-delta) per real second, and a backward
		// step is its extreme case. Campaign servers step at a reset, so
		// only a reset may move C below the floor. A steered clock runs
		// at its oscillator over 1+centre, which keeps the floor while
		// the server's drift bound holds its drift, that is while its
		// readings contain true time; a tainted server may have steered
		// from poisoned ones, and only the clip, |centre| <= delta,
		// bounds its rate: (1-delta)/(1+delta). The steer changes only at
		// a reset, so it is the same across the probe interval.
		c, resets := node.Server.Read(t), node.Server.Resets()
		if dt := t - m.probedAt; dt >= 0 && m.check() && t < m.ownClockFaultAt[i] && resets == m.probeResets[i] {
			delta := node.Server.Delta()
			rate := 1 - delta
			if m.tainted[i] && node.Server.Rate().Steered {
				rate /= 1 + delta
			}
			if floor := m.probeC[i] + rate*dt - m.tol; c < floor {
				m.report(t, i, "monotonic-clock",
					fmt.Sprintf("served C advanced %.9g -> %.9g in %.6g s without a reset (floor %.9g)",
						m.probeC[i], c, dt, floor))
			}
		}
		m.probeC[i], m.probeResets[i] = c, resets
		// HLC boundedness (Kulkarni et al.): while every clock in the
		// service is fault-free, walls — drawn from each server's latest
		// bound C+E — advance between events, so the logical counter stays
		// under a small ceiling. Disarmed service-wide at the first onset:
		// one inflated wall (a racing clock, a falseticker jump, a lie
		// adopted into C+E) propagates through Update and legitimately
		// pins every honest counter.
		if t < m.hlcArmedUntil {
			if l := node.HLCLast(); m.check() && l.Logical > hlcCeiling {
				m.report(t, i, "hlc-bound",
					fmt.Sprintf("logical counter %d exceeds ceiling %d (wall %d)",
						l.Logical, hlcCeiling, l.Wall))
			}
		}
		if m.tainted[i] {
			continue
		}
		iv := node.Server.Interval(t).Grow(m.tol)
		if m.check() {
			m.noteSlack(node.Server.Interval(t), t)
			if !iv.Contains(t) {
				m.report(t, i, m.containmentName(),
					fmt.Sprintf("interval %v excludes true time %.6g (off by %.3g)",
						node.Server.Interval(t), t, offBy(node.Server.Interval(t), t)))
			}
		}
		ivs = append(ivs, iv)
	}
	m.ivsScratch = ivs
	m.probedAt = t
	// Rule IM-1's premise: the correct servers' intervals always admit a
	// common point (each contains true time, so all must overlap).
	if len(ivs) > 1 && m.check() {
		if _, ok := interval.IntersectAll(ivs); !ok {
			m.report(t, -1, "consistency", "untainted servers' intervals share no common point")
		}
	}
}

// offBy reports how far t lies outside iv (zero when contained).
func offBy(iv interval.Interval, t float64) float64 {
	switch {
	case t < iv.Lo:
		return iv.Lo - t
	case t > iv.Hi:
		return t - iv.Hi
	}
	return 0
}
