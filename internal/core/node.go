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
// synchronization function, the Section 5 rate filter, Section 3 recovery
// and the thesis's δ maintenance. It reads no clock, opens no socket and
// schedules nothing: a caller records each reply as it arrives (Observe)
// and hands a round's replies to Sync, as the simulated service and the
// UDP syncer both do. A Node needs a Server and a Fn; every switch is off
// until set.
type Node struct {
	Server *Server
	Fn     SyncFunc
	Rates  RateTracker

	// The policy switches, each described at the method it enables:
	// recover (Section 3), rateFilter (Section 5) and adaptDelta (the
	// thesis's δ maintenance).
	Recovery, RateFilter, AdaptiveDelta bool

	// Counters for experiment reporting.
	Syncs, Resets, Recoveries, FailedRecovery, RateFiltered, DeltaRaises int

	scratch []Reply // reused sync-pass reply buffer
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

// Sync runs one round at real time t: the rate filter, the function,
// recovery, the rate samples' shift across a reset and δ maintenance. It
// returns the result and the replies it ran over, to which the result's
// indices refer. A server whose error was unbounded (E = +Inf, a clock
// never set) is inconsistent with nobody, and does not recover.
func (n *Node) Sync(t float64, replies []Reply) (Result, []Reply) {
	n.scratch = replies // keep grown capacity for the next round
	if n.RateFilter {
		replies = n.rateFilter(replies)
	}
	n.Syncs++
	bounded := n.Server.bounded()
	before := n.Server.Read(t)
	res := n.Fn.Sync(n.Server, t, replies)
	if res.Reset {
		n.Resets++
	}
	if len(res.Inconsistent) > 0 && n.Recovery && bounded {
		n.recover(t, replies, res)
	}
	// A reset shifts the local timeline; translate the rate samples so
	// the estimates stay continuous across it (Section 5 bookkeeping).
	if after := n.Server.Read(t); !interval.SameEdge(after, before) {
		n.Rates.ShiftLocal(after - before)
	}
	if n.AdaptiveDelta {
		n.adaptDelta(t)
	}
	return res, replies
}

// adaptDelta applies the thesis's delta maintenance ("algorithms MM and
// IM can then be applied to maintain a consonant set of delta_i"):
// intersect the drift constraints implied by every sufficiently-observed
// neighbor; if the result proves the server's own claimed bound
// impossible, raise the bound (with margin) to cover it. The repaired
// bookkeeping makes the server's interval correct again, so it rejoins
// the service honestly.
func (n *Node) adaptDelta(now float64) {
	var estimates []RateEstimate
	var deltas []float64
	// Ids never heard from hold no estimate and fall out below.
	for from, p := range n.Rates.pairs {
		est := n.Rates.Estimate(from)
		if est.Valid && est.Span >= AdaptAfter {
			estimates = append(estimates, est)
			deltas = append(deltas, p.last.Delta)
		}
	}
	if len(estimates) == 0 {
		return
	}
	constraint, ok := EstimateOwnDrift(estimates, deltas)
	if !ok {
		// Mutually inconsistent constraints: some neighbor's bound is
		// invalid; nothing sound to adapt to.
		return
	}
	// As with the rate filter, neighbors' resets perturb the estimates in
	// ways their uncertainty terms cannot see, so only act on clear
	// evidence: the constraint must exclude even twice the claimed bound.
	if !SuspectInvalidBound(constraint, 2*n.Server.Delta()) {
		return
	}
	need := math.Max(math.Abs(constraint.Lo), math.Abs(constraint.Hi)) * 1.1
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
// The check carries a 2x margin on the claimed bounds: a neighbor's own
// resets perturb the observed rate by amounts the estimate's uncertainty
// cannot account for (the jumps are invisible remotely), so only clear
// dissonance — beyond twice the combined bounds — excludes a reply.
func (n *Node) rateFilter(replies []Reply) []Reply {
	kept := replies[:0]
	for _, r := range replies {
		est := n.Rates.Estimate(r.From)
		if est.Valid && est.Span >= RateFilterAfter &&
			!est.ConsonantWith(2*n.Server.Delta(), 2*r.Delta) {
			n.RateFiltered++
			continue
		}
		kept = append(kept, r)
	}
	return kept
}

// recover implements the Section 3 heuristic: having found itself
// inconsistent with some neighbor, the server assumes a third server is
// correct and resets from it. Consistent replies are preferred; failing
// that, any reply from a server other than the first inconsistent one is
// adopted.
func (n *Node) recover(now float64, replies []Reply, res Result) {
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
		n.FailedRecovery++
		return
	}
	n.Server.Adopt(now, replies[pick])
	n.Recoveries++
	n.Rates.ResetAll()
}
