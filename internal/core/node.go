package core

import (
	"math"

	"disttime/internal/interval"
)

// The minimum observation spans, in local-clock seconds, before the rate
// filter may exclude a neighbor and before δ maintenance may act.
const (
	RateFilterAfter = 120.0
	AdaptAfter      = 300.0
)

// Node is one time server with the policy around its sync rounds: the
// synchronization function, the Section 5 rate filter and rate
// discipline, Section 3 recovery and the thesis's δ maintenance. It
// reads no clock but its server's, opens no socket and schedules
// nothing: a caller records each reply as it arrives (Observe)
// and hands a round's replies to Sync, as the simulated service and the
// UDP syncer both do, and reads what the round did from the Pass it
// returns. A Node needs a Server and a Fn; every switch is off until set.
type Node struct {
	Server *Server
	Fn     SyncFunc
	Rates  RateTracker

	// The policy switches, each described at the method it enables:
	// recover (Section 3), rateFilter (Section 5) and adaptDelta (the
	// thesis's δ maintenance).
	Recovery, RateFilter, AdaptiveDelta bool

	// Discipline, when set, is the rate discipline the node runs after
	// every reset of its function (discipline): Slew, which service sets
	// for IM. Nil leaves the clock at its oscillator and the error
	// aging at δ.
	Discipline RateRule

	// Counters for experiment reporting. Resets counts the passes whose
	// rule reset the clock (Result.Reset); a Pass counts every clock set,
	// a recovery's adopt included, as Server.Resets does.
	Syncs, Resets, Recoveries, RateFiltered, DeltaRaises int

	scratch []Reply             // reused sync-pass reply buffer
	votes   []interval.Interval // reused rate-filter vote buffer
	anchor  Anchor              // the rate discipline's anchor

	// sel is the rate filter's last agreed selection, when selOK: what
	// outvotes a request between rounds (Hear).
	sel   interval.Interval
	selOK bool
	// voteOf[from] is the index in votes of from's vote in the rate
	// filter's last round, 0 (the node's own claim) if it cast none.
	voteOf []int
	heard  Pass // the record of Hear's last adopt
}

// Observe records a reply as it arrives, local being the node's clock
// reading then. The rate tracker indexes a slice by r.From, grown on
// demand, so it is a small number the caller assigns, never a remote's.
func (n *Node) Observe(r Reply, local float64) {
	n.Rates.Observe(r.From, RateSample{Local: local, Remote: r.C, RTT: r.RTT, Delta: r.Delta})
}

// Replies returns the node's reply buffer, emptied, for a caller to fill
// and pass to Sync, which keeps its capacity: rounds do not allocate.
func (n *Node) Replies() []Reply { return n.scratch[:0] }

// Pass is the record of one sync pass: the server's reading either side
// of it, the inputs Theorems 2, 5 and 6 compare, and what the pass did.
// It holds counts, never the node's reply buffer, so a caller may keep it
// past the next round.
type Pass struct {
	// Node is the server's ID and T the real time of the pass.
	Node int
	T    float64
	// Fn is the synchronization function's Name.
	Fn string
	// Before and After are the server's readings at T either side of the
	// pass: After includes recovery and δ maintenance.
	Before, After Reading
	// Result is the function's; its indices count the replies it ran over.
	Result Result
	// Replies is how many replies the function ran over, after the rate
	// filter.
	Replies int
	// Sets is how many times the pass set the clock: the rule's resets
	// (MM may reset once per reply) plus recovery's adopt.
	Sets int
	// Recovered reports whether Section 3 recovery adopted a reply.
	Recovered bool
	// Rate is the rate discipline's state after the pass (Server.Rate):
	// the steer and the aging rate.
	Rate Rate
	// Fallback reports that the pass's rate step found a drift bound
	// outside the claimed one (RateRule.Step).
	Fallback bool
}

// Sync runs one round at real time t: the rate filter, the function, the
// rate discipline after a reset, recovery, the rate samples' shift
// across a reset and δ maintenance, and returns its record. The rate
// filter compacts replies in place, so the function ran over
// replies[:Pass.Replies]. A server whose error was
// unbounded (E = +Inf, a clock never set) is inconsistent with nobody,
// and does not recover.
func (n *Node) Sync(t float64, replies []Reply) Pass {
	n.scratch = replies // keep grown capacity for the next round
	if n.RateFilter {
		replies = n.rateFilter(replies)
	}
	n.Syncs++
	bounded := n.Server.bounded()
	sets := n.Server.resets
	p := Pass{Node: n.Server.ID(), T: t, Fn: n.Fn.Name(), Before: n.Server.Reading(t), Replies: len(replies)}
	p.Result = n.Fn.Sync(n.Server, t, replies)
	if p.Result.Reset {
		n.Resets++
		if n.Discipline != nil {
			p.Fallback = n.discipline(t)
		}
	}
	if len(p.Result.Inconsistent) > 0 && n.Recovery && bounded {
		p.Recovered = n.recover(t, replies, p.Result)
	}
	// A reset shifts the local timeline; translate the rate samples so
	// the estimates stay continuous across it (Section 5 bookkeeping).
	n.Rates.ShiftLocal(n.Server.Read(t) - p.Before.C)
	if n.AdaptiveDelta {
		n.adaptDelta(t)
	}
	p.After, p.Sets = n.Server.Reading(t), n.Server.resets-sets
	p.Rate = n.Server.Rate()
	return p
}

// Hear takes a request's reading at real time t (DESIGN.md §3, "A
// request is a reading"), own being the node's reading at t, which the
// caller took to answer the request. r is what the request carried: From
// the requester, <C, E> and Delta its reading and claimed bound as it
// sent, and Band the band its leg crossed; RTT and Age are unused.
// The reading is Leg's interval around own. Hear drops it
// when it has no band, and when it misses the node's interval, which
// counts as an inconsistency. While the node's round is open (open) the
// clock must not move: Hear returns the reading as a reply with no
// transit left to charge (<C, E> the interval's Midpoint) and hold true,
// and the caller hands it to the round's Sync with the replies, whose
// rate filter treats it as its sender's reply. Outside a round it is
// dropped if the rate filter drops its sender now, or else, if it
// narrows the node's interval, the node adopts the midpoint (Narrow),
// rate and anchor untouched, and Hear returns the record of the set,
// as Sync's would be: Sets 1 and the rate samples shifted across it,
// with no function run (Replies 0, an empty Result). The record is the
// node's, valid until its next Hear: a request is answered on every
// message, so Hear copies no Pass it does not make.
func (n *Node) Hear(t float64, own Reading, r Reply, open bool) (held Reply, hold bool, set *Pass) {
	if !r.Band.Known() {
		return held, false, nil
	}
	s, before := n.Server, own
	lo, hi := Leg(r.C, r.E, r.Band.Min, r.Band.Max, before.C)
	if !Consistent(lo, hi, before.E) {
		s.noteInconsistent()
		return held, false, nil
	}
	if open {
		shift, eps := Midpoint(lo, hi, before.C)
		return Reply{From: r.From, C: before.C + shift, E: eps, Delta: r.Delta}, true, nil
	}
	if n.RateFilter && n.filtered(r) {
		n.RateFiltered++
		return held, false, nil
	}
	shift, eps, ok := Narrow(lo, hi, before.E, before.C)
	if !ok {
		return held, false, nil
	}
	s.SetClock(t, before.C+shift, eps)
	after := s.readingAt(s.resetRef) // SetClock read the clock as it set it
	n.Rates.ShiftLocal(after.C - before.C)
	n.heard = Pass{Node: s.ID(), T: t, Fn: n.Fn.Name(), Before: before, After: after, Sets: 1, Rate: s.Rate()}
	return held, false, &n.heard
}

// discipline runs the rate rule on the reading the function just
// adopted at t, and reports whether it fell back. A clock that cannot be
// steered keeps no anchor and runs at its oscillator, aging at δ.
func (n *Node) discipline(t float64) bool {
	s := n.Server
	ticks, ok := s.ticks(n.anchor.T, t)
	if !ok {
		n.anchor = Anchor{}
		return false
	}
	r, next, fallback := n.Discipline.Step(n.anchor, t, s.resetRef, s.epsilon, ticks, s.delta)
	n.anchor = next
	s.steer(t, r)
	return fallback
}

// constraint returns the bound neighbor from's rate estimate puts on the
// node's own drift: OwnDriftConstraint at the neighbor's last claimed
// bound (the round's r.Delta, as every reply is observed before Sync), or
// an inverted interval, no vote, until the neighbor is observed for span.
func (n *Node) constraint(from int, span float64) (RateEstimate, interval.Interval) {
	est := n.Rates.Estimate(from)
	if !est.Valid || est.Span < span {
		return est, interval.Interval{Lo: 1, Hi: 0}
	}
	return est, OwnDriftConstraint(est, n.Rates.pairs[from].last.Delta)
}

// agreed is NTP's clock selection, which both Section 5 steps act on:
// when the top Marzullo count is a majority of the valid votes, the
// envelope of the regions at that count (MarzulloSpan); a vote missing it
// is a falseticker. That is interval.Select's split, but a tie drops none.
func agreed(votes []interval.Interval) (interval.Interval, bool) {
	voters := 0
	for _, v := range votes {
		if v.Valid() {
			voters++
		}
	}
	if best := interval.Marzullo(votes); best.Count > voters/2 {
		return interval.MarzulloSpan(votes, best.Count)
	}
	return interval.Interval{}, false
}

// adaptDelta applies the thesis's delta maintenance ("algorithms MM and
// IM can then be applied to maintain a consonant set of delta_i"): if the
// agreed own-drift constraints of the neighbors observed for AdaptAfter
// prove the server's claimed bound impossible, raise it (with margin) to
// cover them. A raise only widens E, so a majority suffices.
func (n *Node) adaptDelta(now float64) {
	n.votes = n.votes[:0]
	for from := range n.Rates.pairs {
		_, c := n.constraint(from, AdaptAfter)
		n.votes = append(n.votes, c)
	}
	sel, ok := agreed(n.votes)
	// Neighbors' resets perturb the estimates unseen (see rateFilter), so
	// act only when the selection excludes even twice the claimed bound.
	if d := 2 * n.Server.Delta(); !ok || interval.Consistent(sel, interval.Interval{Lo: -d, Hi: d}) {
		return
	}
	need := math.Max(math.Abs(sel.Lo), math.Abs(sel.Hi)) * 1.1
	if err := n.Server.RaiseDelta(now, need); err == nil {
		n.DeltaRaises++
	}
}

// rateFilter drops replies from neighbors whose observed separation rate
// is dissonant with the claimed bounds, once enough observation span has
// accumulated. This is the Section 5 defense running inside the sync
// loop: a neighbor drifting beyond its claimed bound is excluded even
// while its intervals remain consistent, the Figure 3 hazard the interval
// mechanisms alone cannot resist. The estimates survive the server's own
// resets (Sync shifts the tracker's local timeline by each jump).
//
// It is one rule in two steps. The veto: a reply whose rate is dissonant
// beyond twice the combined claimed bounds is dropped whatever the other
// neighbors say (a neighbor's own resets perturb the observed rate by
// amounts the estimate's uncertainty cannot see, hence the margin). The
// vote: agreed over the node's claim [-delta, delta] and each remaining
// reply's own-drift constraint at the claimed bounds (the paper's
// |rate| <= delta_i + delta_j) drops its falsetickers, so an upstream a
// wide own bound lets past the veto is still outvoted; with no majority
// only the vetoes act. It assumes the valid votes are the top-count
// group: invalid ones helped by wide valid ones can outvote an honest one.
//
// A neighbor votes once a round: a request it sent, which Hear holds for
// the round, is filtered with its reply but casts no second vote.
func (n *Node) rateFilter(replies []Reply) []Reply {
	delta := n.Server.Delta()
	n.votes = append(n.votes[:0], interval.Interval{Lo: -delta, Hi: delta})
	clear(n.voteOf)
	kept := replies[:0]
	for _, r := range replies {
		est, c := n.constraint(r.From, RateFilterAfter)
		if c.Valid() && !est.ConsonantWith(2*delta, 2*r.Delta) {
			n.RateFiltered++
			continue
		}
		if r.From >= len(n.voteOf) {
			n.voteOf = append(n.voteOf, make([]int, r.From+1-len(n.voteOf))...)
		}
		if n.voteOf[r.From] == 0 {
			n.voteOf[r.From] = len(n.votes)
			n.votes = append(n.votes, c)
		}
		kept = append(kept, r)
	}
	n.sel, n.selOK = agreed(n.votes)
	out := kept[:0]
	for _, r := range kept {
		if c := n.votes[n.voteOf[r.From]]; n.selOK && c.Valid() && !interval.Consistent(c, n.sel) {
			n.RateFiltered++
			continue
		}
		out = append(out, r)
	}
	return out
}

// filtered reports whether the rate filter drops r's sender now: its
// veto, or the selection of the node's last round.
func (n *Node) filtered(r Reply) bool {
	delta := n.Server.Delta()
	est, c := n.constraint(r.From, RateFilterAfter)
	if !c.Valid() {
		return false
	}
	return !est.ConsonantWith(2*delta, 2*r.Delta) || n.selOK && !interval.Consistent(c, n.sel)
}

// recover implements the Section 3 heuristic: having found itself
// inconsistent with some neighbor, the server assumes a third server is
// correct and resets from it. Consistent replies are preferred; failing
// that, any reply from a server other than the first inconsistent one is
// adopted. It reports whether it adopted one.
func (n *Node) recover(now float64, replies []Reply, res Result) bool {
	inconsistent := make(map[int]bool, len(res.Inconsistent))
	for _, idx := range res.Inconsistent {
		inconsistent[idx] = true
	}
	pick := -1
	for i := range replies {
		if !inconsistent[i] {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Every reply was inconsistent with us: adopt any server other
		// than the first offender (the paper's "any third server").
		first := replies[res.Inconsistent[0]].From
		for i, r := range replies {
			if r.From != first {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return false
	}
	n.Server.Adopt(now, replies[pick])
	n.Recoveries++
	n.Rates.ResetAll()
	if n.Discipline != nil {
		// The adopted reading is a stranger's: nothing vouches for the
		// old anchor or the rate steered from it. An unsteered server
		// already ages at delta.
		n.anchor = n.Discipline.Recover(n.anchor)
		if n.Server.rate.Steered {
			n.Server.steer(now, Rate{Age: n.Server.delta})
		}
	}
	return true
}
