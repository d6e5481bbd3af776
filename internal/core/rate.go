package core

import "disttime/internal/interval"

// This file implements the Section 5 machinery: when a service becomes
// inconsistent "the rates of the servers must be examined in order to
// determine how to recover". Two clocks are consonant at t0 if their rate
// of separation is within the sum of their claimed maximum drift rates:
//
//	| d/dt (C_i(t) - C_j(t)) | <= delta_i + delta_j
//
// A rate interval plays the role the time interval plays in algorithms MM
// and IM: majority selection over the own-drift constraints a set of
// neighbors contributes bounds the local clock's own true drift and
// exposes invalid claimed bounds (Node's rateFilter and adaptDelta).

// RateSample is one observation of a neighbor's clock against the local
// clock: the local reading when the reply arrived, the remote reading it
// carried, and the measured round trip.
type RateSample struct {
	// Local is C_i at the arrival of the reply.
	Local float64
	// Remote is C_j carried by the reply.
	Remote float64
	// RTT is the round trip measured on the local clock (xi^i_j), which
	// bounds how stale the remote reading is.
	RTT float64
	// Delta is the drift bound the neighbor claimed in the reply.
	Delta float64
}

// RateEstimate bounds a neighbor's rate of separation
// d(C_j - C_i)/dC_i over an observation span.
type RateEstimate struct {
	// Rate is the estimated separation rate (dimensionless; 0 means the
	// clocks run at the same speed).
	Rate float64
	// Err is the half-width of the rate interval: the estimate's
	// uncertainty from message-delay ambiguity.
	Err float64
	// Span is the local clock time separating the two samples used.
	Span float64
	// Valid is false until two samples with positive span exist.
	Valid bool
}

// Interval returns the rate interval [Rate-Err, Rate+Err].
func (e RateEstimate) Interval() interval.Interval {
	return interval.FromEstimate(e.Rate, e.Err)
}

// ConsonantWith reports whether the estimate is compatible with both
// clocks honoring their claimed bounds deltaI and deltaJ: some rate in the
// estimate's interval must satisfy |rate| <= deltaI + deltaJ.
func (e RateEstimate) ConsonantWith(deltaI, deltaJ float64) bool {
	if !e.Valid {
		return true // no evidence of dissonance
	}
	bound := deltaI + deltaJ
	return interval.Consistent(e.Interval(), interval.Interval{Lo: -bound, Hi: bound})
}

// RateTracker estimates separation rates per neighbor from the first and
// most recent samples since the last reset. Estimates are only meaningful
// between clock resets — a reset is a discontinuity in C, not a rate — so
// a local reset must be shifted out (ShiftLocal) or forgotten (ResetAll).
// Neighbors are small non-negative ids the caller assigns: the samples
// live in a slice indexed by id, grown on demand. The zero value is empty.
type RateTracker struct {
	pairs []samplePair
	// off is the sum of every ShiftLocal: a sample is stored with its
	// Local less off, so a shift moves every stored sample at once.
	off float64
}

// samplePair is one neighbor's first and latest samples; n counts how
// many of the two are held.
type samplePair struct {
	first, last RateSample
	n           int
}

// Observe records a sample for the given neighbor. Samples must be
// observed in increasing Local order.
func (rt *RateTracker) Observe(from int, s RateSample) {
	if from >= len(rt.pairs) {
		rt.pairs = append(rt.pairs, make([]samplePair, from+1-len(rt.pairs))...)
	}
	s.Local -= rt.off
	p := &rt.pairs[from]
	if p.n == 0 {
		p.first, p.n = s, 1
		return
	}
	p.last, p.n = s, 2
}

// ResetAll forgets every sample (call when the local clock reset).
func (rt *RateTracker) ResetAll() { clear(rt.pairs) }

// ShiftLocal translates every stored sample's local reading by d. When
// the local clock is reset by a jump of d (same oscillator, new value),
// the local timeline merely shifts; shifting the samples keeps the rate
// estimates continuous across the reset instead of discarding them —
// the bookkeeping that makes Section 5's rate maintenance practical in a
// service whose servers reset every round. It costs one addition however
// many neighbors are tracked.
func (rt *RateTracker) ShiftLocal(d float64) { rt.off += d }

// Estimate returns the current rate estimate for a neighbor.
//
// With samples (l1, r1) and (l2, r2) the separation rate is
// ((r2-r1) - (l2-l1)) / (l2-l1); each remote reading is stale by an
// unknown share of its round trip, so the offset uncertainty per sample is
// its RTT and the rate uncertainty is (RTT1 + RTT2) / span.
func (rt *RateTracker) Estimate(from int) RateEstimate {
	if from < 0 || from >= len(rt.pairs) || rt.pairs[from].n < 2 {
		return RateEstimate{}
	}
	a, b := rt.pairs[from].first, rt.pairs[from].last
	span := b.Local - a.Local
	if span <= 0 {
		return RateEstimate{}
	}
	return RateEstimate{
		Rate:  ((b.Remote - a.Remote) - span) / span,
		Err:   (a.RTT + b.RTT) / span,
		Span:  span,
		Valid: true,
	}
}

// OwnDriftConstraint converts a neighbor's rate estimate into a bound on
// the local clock's own drift. If the neighbor honors |drift_j| <= deltaJ
// and the observed separation rate is Rate±Err, the local drift offset
// must lie in
//
//	[-deltaJ - Rate - Err,  deltaJ - Rate + Err].
func OwnDriftConstraint(e RateEstimate, deltaJ float64) interval.Interval {
	return interval.Interval{
		Lo: -deltaJ - e.Rate - e.Err,
		Hi: deltaJ - e.Rate + e.Err,
	}
}
