package chaos

import (
	"fmt"
	"math"

	"disttime/internal/clock"
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
	// mm-monotonic, error-growth, im-decide, monotonic-clock,
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
// (containment, consistency, and the monotonic-clock oracle between
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
	// (MM monotonicity, IM decide-or-flag, the monotonic wrapper) hold for
	// every server and stay on everywhere.
	clockFaultAt []float64
	tainted      []bool

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

	last       []passState
	mono       []*clock.Monotonic
	lastMono   []float64
	haveMono   []bool
	ivsScratch []interval.Interval

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
// pass, for the inter-pass error-growth bound.
type passState struct {
	valid  bool
	c, e   float64
	resets int
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
		mono:         make([]*clock.Monotonic, n),
		lastMono:     make([]float64, n),
		haveMono:     make([]bool, n),
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
	// Count the liars: servers whose replies can deviate from their honest
	// interval, whether through a corrupted clock or a two-faced window.
	liarAt := make([]float64, n)
	for i := range liarAt {
		liarAt[i] = m.clockFaultAt[i]
	}
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
	for i, node := range svc.Nodes {
		m.mono[i] = clock.NewMonotonic(node.Server.Clock(), 0.5)
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

// observe asserts the per-pass invariants.
func (m *Monitor) observe(obs service.SyncObservation) {
	t, node := obs.T, obs.Node
	m.refreshTaint(t)
	// Taint propagation: the pass set the clock (synchronization, recovery,
	// or adaptation) while a corrupted server was within reach, so the
	// adopted value may be poisoned. Conservative by construction — an
	// honest reply from a neighbor tainted later in the window still
	// taints — which keeps the containment assertion sound.
	if obs.Resets > obs.ResetsBefore && !m.byz && !m.tainted[node] && m.taintedNeighbor(node) {
		m.tainted[node] = true
	}
	srv := m.svc.Nodes[node].Server
	// Rule MM-2: an MM pass never increases the maximum error. Recovery
	// (rule of Section 3) legitimately adopts a worse third server, so a
	// pass that recovered is exempt. The bound holds even for faulted
	// clocks: the predicate compares against the server's own current
	// error, whatever the oscillator is doing.
	if m.fnName == "MM" && obs.Recoveries == obs.RecovBefore && m.check() && obs.After.E > obs.Before.E+m.tol {
		m.report(t, node, "mm-monotonic",
			fmt.Sprintf("MM pass grew max error %.9g -> %.9g", obs.Before.E, obs.After.E))
	}
	// Rule MM-1's deterioration bound: between passes (no resets in
	// between) the error grows by at most delta per clock second.
	if st := m.last[node]; st.valid && !m.tainted[node] && obs.ResetsBefore == st.resets && m.check() {
		allowed := srv.Delta() * math.Max(0, obs.Before.C-st.c)
		if obs.Before.E > st.e+allowed+m.tol {
			m.report(t, node, "error-growth",
				fmt.Sprintf("error grew %.9g -> %.9g over %.6g clock seconds (delta %.3g)",
					st.e, obs.Before.E, obs.Before.C-st.c, srv.Delta()))
		}
	}
	// Rules IM-1/IM-2: an intersection pass with replies either resets
	// (non-empty intersection) or flags inconsistency.
	if m.fnName != "MM" && obs.Replies > 0 && m.check() && !obs.Res.Reset && len(obs.Res.Inconsistent) == 0 {
		m.report(t, node, "im-decide",
			fmt.Sprintf("%d replies produced neither a reset nor an inconsistency flag", obs.Replies))
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
	m.last[node] = passState{valid: true, c: obs.After.C, e: obs.After.E, resets: obs.Resets}
}

// probe asserts the service-wide invariants between passes.
func (m *Monitor) probe() {
	t := m.svc.Sim.Now()
	m.refreshTaint(t)
	ivs := m.ivsScratch[:0]
	for i, node := range m.svc.Nodes {
		// Section 1.1's monotonic wrapper: its view of any clock — however
		// chaotically the underlying clock is reset, frozen, or raced —
		// never steps backward. Asserted for every server, faulty or not.
		v := m.mono[i].Read(t)
		if m.haveMono[i] && m.check() && v < m.lastMono[i] {
			m.report(t, i, "monotonic-clock",
				fmt.Sprintf("monotonic view stepped back %.9g -> %.9g", m.lastMono[i], v))
		}
		m.lastMono[i], m.haveMono[i] = v, true
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
