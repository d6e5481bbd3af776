package clock

import "math"

// Slewing wraps a clock so that resets are absorbed gradually instead of
// stepping the value: a correction is amortized at no more than Rate
// clock-seconds of adjustment per clock-second. This is how deployed time
// daemons discipline an operating-system clock (adjtime), and for
// backward corrections with Rate < 1 it yields a locally monotonic clock
// — the deployed form of the Section 1.1 technique.
//
// Note the trade-off against rule MM-1's bookkeeping: while a correction
// is pending, the clock's reported value deliberately lags the
// synchronized value by the unabsorbed remainder, so a server using a
// Slewing clock must fold PendingCorrection into its maximum error.
type Slewing struct {
	inner Clock
	rate  float64

	started   bool
	lastInner float64
	applied   float64 // offset currently added to the inner clock
	pending   float64 // correction not yet absorbed
}

var _ Clock = (*Slewing)(nil)

// NewSlewing wraps inner with an adjustment rate in (0, 1], e.g. 0.0005
// for the classic 500 ppm slew. Rates outside the range default to 0.0005.
func NewSlewing(inner Clock, rate float64) *Slewing {
	if rate <= 0 || rate > 1 {
		rate = 0.0005
	}
	return &Slewing{inner: inner, rate: rate}
}

// Read returns the slewed clock value at real time t, absorbing pending
// correction in proportion to the underlying clock's progress since the
// previous read.
func (c *Slewing) Read(t float64) float64 {
	innerNow := c.inner.Read(t)
	if !c.started {
		c.started = true
		c.lastInner = innerNow
		return innerNow + c.applied
	}
	dInner := innerNow - c.lastInner
	c.lastInner = innerNow
	// The final absorption step subtracts exactly the remaining pending
	// amount (absorb == c.pending bit-for-bit), so pending reaches
	// exactly 0 and the sentinel compare below is provably safe.
	//lint:ignore floateq pending is driven to exactly 0 when a correction fully absorbs
	if dInner > 0 && c.pending != 0 {
		absorb := math.Min(math.Abs(c.pending), c.rate*dInner)
		if c.pending < 0 {
			absorb = -absorb
		}
		c.applied += absorb
		c.pending -= absorb
	}
	return innerNow + c.applied
}

// Set schedules a correction: the difference between value and the
// current reading becomes the pending adjustment, absorbed gradually
// rather than applied at once (a later Set replaces, not stacks on, an
// unabsorbed correction). The underlying oscillator is never stepped.
func (c *Slewing) Set(t, value float64) {
	current := c.Read(t)
	c.pending = value - current
}

// PendingCorrection returns the correction not yet absorbed. A time
// server must add its magnitude to the error it reports.
func (c *Slewing) PendingCorrection() float64 { return c.pending }
