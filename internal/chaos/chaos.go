package chaos

import (
	"math"

	"disttime/internal/core"
	"disttime/internal/interval"
	"disttime/internal/obs"
	"disttime/internal/txn"
)

// Verdict is the outcome of one campaign.
type Verdict struct {
	// OK reports that no invariant was violated.
	OK bool
	// Violations lists what the monitor recorded (capped; the first entry
	// is the earliest violation and drives shrinking).
	Violations []Violation
	// Steps is the number of simulator events executed, a cheap
	// determinism fingerprint: identical campaigns must report identical
	// step counts.
	Steps uint64
	// MinSlack is the tightest containment margin the monitor asserted:
	// the minimum over all containment checks of how deep true time sat
	// inside the checked interval (+Inf when nothing was asserted,
	// negative when containment was violated). The adversarial search
	// hill-climbs on this margin: a schedule that shrinks it is closer to
	// a violation even while every check still passes.
	MinSlack float64
}

// First returns the earliest violation, if any.
func (v Verdict) First() (Violation, bool) {
	if len(v.Violations) == 0 {
		return Violation{}, false
	}
	return v.Violations[0], true
}

// Run executes the campaign with the always-on invariant monitor and
// returns the verdict. Equal campaigns always return equal verdicts.
func Run(c Campaign) (Verdict, error) { return run(c, plants{}, nil, nil) }

// RunObserved executes the campaign like Run while feeding the
// observability registry (per-campaign invariant-check and
// fault-activation counters, plus the service, simulator, and network
// metrics) and the span tracer; either may be nil. Observation is
// passive — RunObserved returns exactly the verdict (including the Steps
// determinism fingerprint) that Run would.
func RunObserved(c Campaign, reg *obs.Registry, tr *obs.Tracer) (Verdict, error) {
	return run(c, plants{}, reg, tr)
}

// RunInjected executes the campaign with fn replacing the campaign's
// synchronization function on every server. It exists so the harness can
// test itself: injecting a deliberately broken rule (see BuggyMM) must
// produce violations, or the monitor is asleep.
func RunInjected(c Campaign, fn core.SyncFunc) (Verdict, error) {
	return run(c, plants{fn: fn}, nil, nil)
}

// plants are the broken rules the harness's self-tests inject, each on
// every server: a synchronization function, a rate discipline (on the
// servers that run one: IM's), and a commit policy. The zero value runs
// the campaign's own rules.
type plants struct {
	fn     core.SyncFunc
	rule   core.RateRule
	waiter txn.Waiter
}

// txnRate is the per-client transaction rate (transactions per virtual
// second) for campaign workloads: slow enough that the workload's
// events stay a small fraction of the protocol's, fast enough that
// every campaign commits hundreds of transactions.
const txnRate = 0.5

func run(c Campaign, p plants, reg *obs.Registry, tr *obs.Tracer) (Verdict, error) {
	if err := c.Validate(); err != nil {
		return Verdict{}, err
	}
	svc, err := c.build(p.fn)
	if err != nil {
		return Verdict{}, err
	}
	for _, n := range svc.Nodes {
		if p.rule != nil && n.Discipline != nil {
			n.Discipline = p.rule
		}
	}
	sink := newObsSink(reg)
	sink.campaigns.Inc()
	svc.Observe(reg, tr)
	m := newMonitor(svc, c, sink)
	(&engine{svc: svc, sink: sink}).install(c)
	if c.Txn {
		// One client per server; violations land in the verdict under the
		// txn-external-consistency invariant, gated on the monitor's taint
		// state so faulted clocks (whose containment the theorems no
		// longer promise) cannot raise false alarms.
		_, err := txn.Attach(svc, txn.Config{
			Clients: c.N,
			Rate:    txnRate,
			Waiter:  p.waiter,
			Trusted: m.Trusted,
			OnViolation: func(v txn.Violation) {
				m.report(v.T, v.Client, "txn-external-consistency", v.Detail)
			},
		})
		if err != nil {
			return Verdict{}, err
		}
	}
	svc.Run(c.Dur)
	v := Verdict{
		OK:         len(m.violations) == 0,
		Violations: m.violations,
		Steps:      svc.Sim.Steps(),
		MinSlack:   m.MinSlack(),
	}
	if !v.OK {
		sink.failed.Inc()
	}
	return v, nil
}

// BuggyMM is rule MM-2 with the transit-error term deliberately omitted:
// an adopted reply is charged only its own error E_j, not the
// (1+delta_i)*xi^i_j the rule requires, so every adoption silently
// inherits up to one transit delay of unaccounted offset. It is the
// canonical planted bug for harness self-tests — the containment monitor
// must catch it within a few rounds even with an empty fault schedule —
// and the model for writing new planted bugs when extending the corpus.
type BuggyMM struct{}

// Name reports "MM" so the monitor applies the MM invariants to it.
func (BuggyMM) Name() string { return "MM" }

// Sync applies the broken rule.
func (BuggyMM) Sync(s *core.Server, t float64, replies []core.Reply) core.Result {
	var res core.Result
	for i, r := range replies {
		if !s.ConsistentWith(t, r) {
			res.Inconsistent = append(res.Inconsistent, i)
			continue
		}
		age := math.Max(0, r.Age)
		c := r.C + age
		lead := r.E + s.Delta()*age // BUG: no (1+delta)*RTT transit charge
		if lead <= s.ErrorAt(t) {
			s.SetClock(t, c, lead)
			res.Reset = true
			res.Accepted++
		}
	}
	return res
}

// BuggySlew is the rate discipline that ages a steered clock at its
// point estimate: it steers to the centre of the drift bound as
// core.Slew does, then reports an aging rate of zero, as if the centre
// were the oscillator's drift exactly (w = 0). The clock still runs off
// true time by up to the bound's half-width per second, and no error
// grows to cover it, so an interval loses true time within a few rounds
// of the first steer; the containment monitor must catch it.
type BuggySlew struct{ core.Slew }

// Step is core.Slew's with the residual dropped.
func (b BuggySlew) Step(an core.Anchor, t, c, e, ticks, delta float64) (core.Rate, core.Anchor, bool) {
	r, next, fallback := b.Slew.Step(an, t, c, e, ticks, delta)
	if r.Steered {
		r.Age = 0 // BUG: the steer is only as good as the bound it centres
	}
	return r, next, fallback
}

// BuggyAnchor is the rate discipline that keeps its anchor across a
// Section 3 recovery's adopt. A server recovers because its interval was
// in doubt, so the reading it anchored on may have missed true time; a
// kept anchor carries that miss into the next drift bound. Only a
// faulted server recovers, so the monitor's containment check, which
// exempts faulted servers, cannot see the miss: the re-anchor invariant,
// read off the pass record, catches the kept anchor itself.
type BuggyAnchor struct{ core.Slew }

// Recover keeps the anchor.
func (BuggyAnchor) Recover(an core.Anchor) core.Anchor { return an } // BUG: should drop it

// BuggyIM is a Byzantine-tolerant intersection function done wrong: it
// adopts Marzullo's maximum-overlap window, tightened to the full
// intersection of its member intervals, with NO coverage floor — the
// seductive "just take the best agreement" reading of [Marzullo 83] that
// accepts an agreement of f >= n/3 lying replies. Against honest peers it
// behaves like selectIM and passes every invariant. Against a single
// two-faced liar whose per-peer offset overlaps one flank of the honest
// cluster, the refined window hangs off the honest side: the tightened
// intersection excludes real time and the very next containment check
// fires. It is the planted bug proving the byz-containment invariant is
// awake, and the negative image of core.ByzIM's envelope argument.
type BuggyIM struct{}

// Name reports "byz-IM" so the run is observed like the real thing; the
// monitor's regime is keyed on the campaign's FnName, not this label.
func (BuggyIM) Name() string { return "byz-IM" }

// Sync adopts the tightened maximum-overlap window unconditionally.
func (BuggyIM) Sync(s *core.Server, t float64, replies []core.Reply) core.Result {
	var res core.Result
	ivs := []interval.Interval{s.Interval(t)}
	for _, r := range replies {
		// The honest interval construction, from the rules every honest
		// function uses: the bug is purely in what this function does
		// with the intervals.
		age := math.Max(0, r.Age)
		trail, lead := core.Charge(r.E, r.RTT, age, s.Delta(), 0, math.Inf(1), 0)
		lo, hi := core.Offset(r.C+age, trail, lead, 0)
		ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
	}
	best := interval.Marzullo(ivs)
	var member []interval.Interval
	for _, iv := range ivs {
		if interval.Consistent(iv, best.Interval) {
			member = append(member, iv)
		}
	}
	common, ok := interval.IntersectAll(member)
	if !ok {
		common = best.Interval
	}
	// BUG: no check that best.Count clears len(ivs)-F — any agreement,
	// however thin or however much of it is lies, is adopted.
	s.SetClock(t, common.Midpoint(), common.HalfWidth())
	res.Reset = true
	res.Accepted = best.Count
	return res
}
