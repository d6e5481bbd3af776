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
// and IM; intersecting the rate constraints contributed by a set of
// neighbors bounds the local clock's own true drift and exposes invalid
// claimed bounds.

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
// the tracker must be Reset whenever either clock involved is set.
// Neighbors are small non-negative server ids: the samples live in a
// slice indexed by id, grown on demand.
type RateTracker struct {
	pairs []samplePair
}

// samplePair is one neighbor's first and latest samples; n counts how
// many of the two are held.
type samplePair struct {
	first, last RateSample
	n           int
}

// NewRateTracker returns an empty tracker.
func NewRateTracker() *RateTracker { return &RateTracker{} }

// Observe records a sample for the given neighbor. Samples must be
// observed in increasing Local order.
func (rt *RateTracker) Observe(from int, s RateSample) {
	for from >= len(rt.pairs) {
		rt.pairs = append(rt.pairs, samplePair{})
	}
	p := &rt.pairs[from]
	if p.n == 0 {
		p.first, p.n = s, 1
		return
	}
	p.last, p.n = s, 2
}

// Reset forgets the samples for one neighbor (call when that neighbor's
// clock reset).
func (rt *RateTracker) Reset(from int) {
	if from >= 0 && from < len(rt.pairs) {
		rt.pairs[from] = samplePair{}
	}
}

// ResetAll forgets every sample (call when the local clock reset).
func (rt *RateTracker) ResetAll() { clear(rt.pairs) }

// ShiftLocal translates every stored sample's local reading by d. When
// the local clock is reset by a jump of d (same oscillator, new value),
// the local timeline merely shifts; shifting the samples keeps the rate
// estimates continuous across the reset instead of discarding them —
// the bookkeeping that makes Section 5's rate maintenance practical in a
// service whose servers reset every round.
func (rt *RateTracker) ShiftLocal(d float64) {
	for i := range rt.pairs {
		if p := &rt.pairs[i]; p.n > 0 {
			p.first.Local += d
			p.last.Local += d
		}
	}
}

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

// EstimateOwnDrift applies the intersection function to rates: it
// intersects the drift constraints contributed by each valid neighbor
// estimate (paired with that neighbor's claimed bound). The boolean result
// is false when the constraints are mutually inconsistent, which proves at
// least one claimed bound invalid; the zero-value interval accompanies it.
// With no valid estimates it returns the vacuous constraint (-1, 1).
func EstimateOwnDrift(estimates []RateEstimate, deltas []float64) (interval.Interval, bool) {
	out := interval.Interval{Lo: -1, Hi: 1}
	for i, e := range estimates {
		if !e.Valid {
			continue
		}
		deltaJ := 0.0
		if i < len(deltas) {
			deltaJ = deltas[i]
		}
		var ok bool
		if out, ok = out.Intersect(OwnDriftConstraint(e, deltaJ)); !ok {
			return interval.Interval{}, false
		}
	}
	return out, true
}

// SuspectInvalidBound reports whether the local server's own claimed bound
// delta is impossible given the intersected drift constraint: the
// constraint interval lies entirely outside [-delta, delta].
func SuspectInvalidBound(constraint interval.Interval, delta float64) bool {
	return !interval.Consistent(constraint, interval.Interval{Lo: -delta, Hi: delta})
}
