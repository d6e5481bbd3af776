package core

import (
	"fmt"
	"math"
)

// The paper's rules as arithmetic over float64 seconds. Every holder of
// the rules calls these: Server and the synchronization functions in this
// package, which Node runs for the simulated service and the udptime
// syncer alike, and scale.Engine over its flat per-node arrays. A change
// to a rule (say, a frequency discipline) is made here once.
//
// Two conditions hold for every function here. Its floating-point
// operations and their order are part of its contract: reordering one
// moves every seeded run (scale's TestGoldenFingerprints pins two). And
// it stays small enough to inline, so the scale engine pays no call per
// reply (go build -gcflags=-m ./internal/scale shows each "inlining call
// to core.X").
//
// Leg is Charge and Offset for a one-way message with known delay
// bounds, and Narrow is what a responder does with it outside a round:
// a request is a reading (Node.Hear, and scale.Engine over its arrays).
//
// Where rounding could lose true time, a rule rounds outward by roundoff
// times the reading (Charge, Leg, Midpoint, DriftInterval, Steer), so
// the oracles compare exactly.
//
// The last two, DriftInterval and Steer, are §5's rate discipline: a
// node bounds its own oscillator's drift from two of its own intervals,
// runs its clock at the bound's centre and ages its error at the
// residual (DESIGN.md §3, "Rate discipline").

// AgedError is rule MM-1's maximum error: the inherited error eps plus
// deterioration delta per clock-second elapsed since the last reset,
//
//	E = eps + (C - r)*delta.
//
// A clock a fault moved behind its reset reference has elapsed < 0; the
// deterioration is clamped at zero, since error never shrinks by drift.
func AgedError(eps, elapsed, delta float64) float64 {
	if elapsed < 0 {
		elapsed = 0
	}
	return eps + elapsed*delta
}

// Charge is what a requester with drift bound delta must add to a reply's
// error e, given the round trip rtt it measured on its own clock (the
// paper's xi), the local clock time age it has held the reply since
// arrival (clamped at zero), the path's one-way delay band [m, M] in true
// seconds, and its own reading c at the reply's arrival:
//
//	trail = e + delta*age - max(m, (1-delta)*rtt - M)
//	lead  = e + min((1+delta)*rtt - m, M) + delta*age
//
// The responder read its clock at some point during the round trip, so
// the leading edge carries the whole of it, stretched by the requester's
// own drift over the flight: the transit charge of rule IM-2's transform
// and of MM-2's error adjustment. The band narrows it. Each leg takes
// between m and M, and the true round trip between (1-delta)*rtt and
// (1+delta)*rtt, so the reply's own leg took at least m and at least the
// round trip less the longest request leg, and at most M and at most the
// round trip less the shortest: the reply's true time is at least its
// reading's lower edge plus that credit (trail), and at most its upper
// edge plus that cap (lead). Both edges widen by delta*age while the reply
// waits to be applied. Each credit is rounded inward by roundoff*|c|,
// clamped at zero, and M outward by as much, as Leg rounds. A caller that
// knows no band passes m = 0 and M = +Inf, which leaves every bit of the
// paper's quantities (and c unused): the credit is max(0, -Inf) = 0 and
// the lead min(lead, +Inf).
func Charge(e, rtt, age, delta, m, M, c float64) (trail, lead float64) {
	if age < 0 {
		age = 0
	}
	drift := delta * age
	pad := roundoff * math.Abs(c)
	credit := max(0, max(m, (1-delta)*rtt-M)-pad)
	return e + drift - credit, e + min((1+delta)*rtt-max(0, m-pad), M+pad) + drift
}

// Offset is rule IM-2's transform: the reply's clock c with its charged
// errors, as an interval of offsets from the requester's reading ci,
//
//	[lo, hi] = [c - trail - ci, c + lead - ci].
//
// With ci = 0 it is the reply's interval on the requester's timeline.
func Offset(c, trail, lead, ci float64) (lo, hi float64) {
	return c - trail - ci, c + lead - ci
}

// Leg is rule IM-2's transform for a one-way reading: a sender's <c, e>,
// read as it sent, over a leg of at least m and at most M true seconds,
// as an interval of offsets from the receiver's reading cj at arrival,
//
//	[lo, hi] = [c - e + m - cj, c + e + M - cj].
//
// The sender's true time was within c ± e when it sent, and the message
// arrived between m and M later. The credit of m is rounded inward by
// roundoff*|cj|, clamped at zero, and M outward by as much. A request is
// such a reading: its responder intersects it as a requester intersects
// a reply, which costs no message.
func Leg(c, e, m, M, cj float64) (lo, hi float64) {
	pad := roundoff * math.Abs(cj)
	return Offset(c, e-max(0, m-pad), e+M+pad, cj)
}

// Band is a link's one-way delay band [Min, Max] in true seconds: the
// premise Charge and Leg credit, that every leg takes at least Min and at
// most Max. The paper assumes [0, xi/2]. Both simulated substrates draw
// each message's delay from its link's band (Draw), and a zero Max is no
// band (Known): a real network's is not known, and crediting more than it
// has excludes the true time.
type Band struct {
	Min, Max float64
}

// Draw is the delay a uniform draw u in [0, 1) picks from the band.
func (b Band) Draw(u float64) float64 { return b.Min + u*(b.Max-b.Min) }

// Check rejects a band the event kernels cannot schedule a draw from: a
// NaN or infinite edge, a negative Min, or a Max below Min.
func (b Band) Check() error {
	if !(b.Min >= 0 && b.Max >= b.Min) || math.IsInf(b.Max, 1) {
		return fmt.Errorf("delay band [%v, %v] not finite with 0 <= min <= max", b.Min, b.Max)
	}
	return nil
}

// Known reports whether the band bounds its legs: a zero Max is no band,
// and the rules then charge the paper's m = 0, M = +Inf.
func (b Band) Known() bool { return b.Max > 0 }

// Consistent reports whether the offset interval [lo, hi] meets the
// requester's own [-ei, ei], the paper's |C_i - C_j| <= E_i + E_j after
// the transit charge. A reply that fails it proves one of the two servers
// incorrect, and rule MM-2 ignores it.
func Consistent(lo, hi, ei float64) bool {
	return lo <= ei && hi >= -ei
}

// Widen ages a running offset intersection [a, b] by dc seconds of local
// clock progress (clamped at zero): offsets keep their reference at the
// current reading, and each edge moves out by delta*dc. It is Charge's
// delta*age applied to the intersection instead of to each reply in it.
func Widen(a, b, dc, delta float64) (float64, float64) {
	if dc < 0 {
		dc = 0
	}
	return a - delta*dc, b + delta*dc
}

// Fold intersects [lo, hi] into the running intersection [a, b]. The
// result is empty, and the service inconsistent, when it has b < a.
func Fold(a, b, lo, hi float64) (float64, float64) {
	if lo > a {
		a = lo
	}
	if hi < b {
		b = hi
	}
	return a, b
}

// Midpoint is rule IM-2's adoption of a non-empty intersection [a, b] of
// offsets from the reading ci (0 for absolute intervals): the clock moves
// by shift = (a+b)/2 and inherits eps = (b-a)/2 + roundoff*|ci+shift|, a
// pad past the half-ulp roundings of the adopted edges ci+shift ± eps, so
// an edge of [a, b] on true time stays inside. Theorem 6 holds up to it.
func Midpoint(a, b, ci float64) (shift, eps float64) {
	shift = (a + b) / 2
	return shift, (b-a)/2 + roundoff*math.Abs(ci+shift)
}

// Narrow is rule IM-2 for one reading [lo, hi] of offsets from the
// reading c, taken outside a round: intersected with the node's own
// [-e, e], it narrows it or it does not. When it does, the node adopts
// the intersection's midpoint (Midpoint), and ok is true. A reading that
// misses [-e, e] must be refused first (Consistent).
func Narrow(lo, hi, e, c float64) (shift, eps float64, ok bool) {
	a, b := -e, e
	if lo > a {
		a, ok = lo, true
	}
	if hi < b {
		b, ok = hi, true
	}
	if ok {
		shift, eps = Midpoint(a, b, c)
	}
	return shift, eps, ok
}

// CollectWindow is how long a round collects replies before rule IM-2
// adopts: the round-trip bound xi with a 5 % margin, so every reply, sent
// and answered within xi, is in before the round closes. service closes
// its rounds here, and so does scale.Engine.
func CollectWindow(xi float64) float64 {
	return xi * 1.05
}

// roundoff is eight units in the last place of 1: the outward margin the
// rules add for floating-point rounding, relative to the reading c. A
// delay credit is one place it goes: each leg's arrival is its send
// instant plus the delay, rounded to the clock's precision, so a leg can
// fall short of its band's m, or pass its M, by half a unit in the last
// place of c, and the readings and Offset's subtractions round by as
// much again. roundoff*|c| is four to eight such units, so Charge and
// Leg credit a delay bound less it and pad a Max by it.
const roundoff = 0x1p-50

// DriftInterval bounds a node's oscillator drift d from two of its own
// readings, <c1, e1> and then <c2, e2>, and the raw oscillator ticks
// between them. When each reading contains the true time of its instant,
// t1 within c1 ± e1 and t2 within c2 ± e2, the true span t2 - t1 lies
// within c2 - c1 ± (e1 + e2), and ticks = (1+d)(t2 - t1), so
//
//	1+d ∈ [ticks/(c2-c1+e1+e2), ticks/(c2-c1-e1-e2)].
//
// hi is +Inf while the span does not exceed the margin e1 + e2. Both ends
// are rounded outward: by roundoff on the low side, and on the high side
// by roundoff times the span's cancellation, (span+margin)/(span-margin).
// With ticks <= 0 no positive rate fits, and lo <= -1.
func DriftInterval(c1, e1, c2, e2, ticks float64) (lo, hi float64) {
	span, margin := c2-c1, e1+e2
	lo, hi = ticks/(span+margin)*(1-roundoff)-1, math.Inf(1)
	if short := span - margin; short > 0 {
		hi = ticks/short*(1+roundoff*(span+margin)/short) - 1
	}
	return lo, hi
}

// Steer is the discipline for an oscillator whose drift lies in [lo, hi],
// lo > -1 and hi finite: the clock runs the oscillator at 1/(1+centre),
// centre the interval's midpoint, so its rate against true time lies
// within 1 ± w, w = (hi-lo)/2/(1+centre) < 1. A local second then spans
// between 1/(1+w) and 1/(1-w) true seconds, so rule MM-1 ages the error,
// and IM-2 widens its intersection and charges a round trip, at w/(1-w)
// per local second. That rate, rounded up by roundoff, relative and
// absolute, for the rounding of the clock's rate and reading, is sound
// for every drift in the interval, where delta is sound only for drifts
// up to delta/(1+delta) (ROADMAP item 23).
func Steer(lo, hi float64) (centre, age float64) {
	centre = (lo + hi) / 2
	w := (hi - lo) / 2 / (1 + centre)
	return centre, w/(1-w)*(1+roundoff) + roundoff
}
