package core

import "disttime/internal/interval"

// This file extends the paper's synchronization functions toward failing
// clocks, the direction the paper defers to [Marzullo 83]: the
// majority-intersection function (Marzullo's algorithm as a
// synchronization function) that tolerates falsetickers where plain rule
// IM-2 reports inconsistency and refuses to act, and its Byzantine-tolerant
// envelope form.

// SelectIM is the intersection function hardened against falsetickers:
// instead of requiring every interval to intersect (rule IM-2, which
// refuses to act on an inconsistent service), it runs majority selection
// (interval.Select) over the server's own interval and the replies' and
// resets to the midpoint of the selected region. This is the
// [Marzullo 83] extension running inside the service loop, and the shape
// NTP's clock selection later took.
type SelectIM struct{}

// Name returns "select-IM".
func (SelectIM) Name() string { return "select-IM" }

// Sync finds the majority intersection and adopts its midpoint. A server
// whose error is unbounded (a clock never set) has no interval and casts
// no vote.
func (SelectIM) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	// Reply i is ivs[i+own], own = 1 when the server votes its interval.
	var ivs []interval.Interval
	if s.bounded() {
		ivs = append(ivs, s.Interval(t))
	}
	own := len(ivs)
	for _, r := range replies {
		ivs = append(ivs, s.replyInterval(t, r))
	}
	sel, ok := interval.Select(ivs)
	if !ok {
		// No sufficient agreement: the service is too inconsistent to
		// act. Flag every reply so the recovery policy can run.
		s.noteInconsistent()
		res.Inconsistent = inconsistentIndices(len(replies))
		return res
	}
	for _, idx := range sel.Falsetickers {
		if idx >= own {
			s.noteInconsistent()
			res.Inconsistent = append(res.Inconsistent, idx-own)
		}
	}
	c, eps := Midpoint(sel.Interval.Lo, sel.Interval.Hi, 0)
	s.SetClock(t, c, eps)
	res.Reset = true
	res.Accepted = len(sel.Survivors)
	return res
}

// ByzIM is the Byzantine-tolerant intersection function: it adopts the
// agreement envelope — the span of every point covered by at least
// len(ivs)-F of the considered intervals (MarzulloSpan) — rather than a
// refined intersection. With at most F two-faced or otherwise arbitrary
// servers among the repliers, real time is covered by every correct
// interval, hence by at least len(ivs)-F intervals, hence lies inside the
// span no matter what the liars report to this particular peer. SelectIM
// does not have this property: a single liar whose interval overlaps one
// flank of the honest cluster drags the max-overlap window off real
// time, which is exactly the violation the chaos tier's BuggyIM plants. The price of soundness is width: the
// span never excludes a liar's overlap, so the adopted error bound is
// wider than SelectIM's. An empty envelope means more than F of the
// collected intervals lie (or the budget was misconfigured); ByzIM then
// refuses to act and flags every reply — rule IM-2's shape — so the
// recovery policy can take over.
type ByzIM struct {
	// F is the fault budget: how many of the considered intervals may be
	// arbitrary. Containment of real time holds whenever the actual
	// number of faulty repliers is at most F; n >= 3F+1 additionally
	// keeps the adopted width within the honest cluster's spread. F <= 0
	// means floor((len(ivs)-1)/3), the largest budget a fully collected
	// round of the classical n >= 3f+1 resilience bound supports.
	F int
}

// Name returns "byz-IM".
func (ByzIM) Name() string { return "byz-IM" }

// Sync adopts the midpoint of the coverage-(len-F) agreement envelope.
func (f ByzIM) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	ivs := []interval.Interval{s.Interval(t)}
	for _, r := range replies {
		ivs = append(ivs, s.replyInterval(t, r))
	}
	budget := f.F
	if budget <= 0 {
		budget = (len(ivs) - 1) / 3
	}
	need := len(ivs) - budget
	if need < 1 {
		need = 1
	}
	span, ok := interval.MarzulloSpan(ivs, need)
	if !ok {
		// No point is covered by len-F intervals: more than F of what was
		// collected is lying, which the budget does not cover. Refuse to
		// act and flag the replies so recovery can run.
		s.noteInconsistent()
		res.Inconsistent = inconsistentIndices(len(replies))
		return res
	}
	c, eps := Midpoint(span.Lo, span.Hi, 0)
	s.SetClock(t, c, eps)
	res.Reset = true
	res.Accepted = len(ivs)
	return res
}
