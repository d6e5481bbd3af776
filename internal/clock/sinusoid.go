package clock

import "math"

// Sinusoid is a clock whose rate offset varies sinusoidally:
//
//	dC/dt = 1 + A sin(2 pi t / P + phase)
//
// the classic model of a crystal oscillator breathing with a daily
// temperature cycle. The amplitude A is a valid drift bound
// (|1 - dC/dt| <= A always), so a server claiming delta = A satisfies the
// paper's assumptions while its instantaneous rate wanders — the "usually
// stable" clocks of Section 1.1. Unlike a constant-drift clock, its
// offset oscillates rather than accumulates, which exercises the
// algorithms' behavior when drift self-cancels over a period.
type Sinusoid struct {
	amp    float64
	period float64
	phase  float64

	t0 float64 // real time of last reset
	v0 float64 // clock value at t0
}

var (
	_ Clock = (*Sinusoid)(nil)
	_ Rated = (*Sinusoid)(nil)
)

// NewSinusoid returns a sinusoidal-rate clock reading value at real time
// t. amp is the rate amplitude (and a valid claimed bound); period is the
// modulation period in seconds (e.g. 86400 for a daily thermal cycle);
// phase is the phase at real time zero, in radians. Non-positive periods
// default to one day; negative amplitudes are clamped to zero.
func NewSinusoid(t, value, amp, period, phase float64) *Sinusoid {
	if period <= 0 {
		period = 86400
	}
	if amp < 0 {
		amp = 0
	}
	return &Sinusoid{amp: amp, period: period, phase: phase, t0: t, v0: value}
}

// Read integrates the rate in closed form:
//
//	C(t) = v0 + (t-t0) - A P/(2 pi) [cos(w t + phase) - cos(w t0 + phase)]
//
// with w = 2 pi / P.
func (c *Sinusoid) Read(t float64) float64 {
	w := 2 * math.Pi / c.period
	integral := -(c.amp / w) * (math.Cos(w*t+c.phase) - math.Cos(w*c.t0+c.phase))
	return c.v0 + (t - c.t0) + integral
}

// Set resets the clock value; the oscillator's modulation continues
// unchanged.
func (c *Sinusoid) Set(t, value float64) {
	c.t0 = t
	c.v0 = value
}

// ActualRate returns dC/dt at real time tracked by the last reset
// reference; since the rate depends only on absolute time, it takes no
// argument beyond the stored phase and is reported for the last reset
// time. Use RateAt for an arbitrary instant.
func (c *Sinusoid) ActualRate() float64 { return c.RateAt(c.t0) }

// RateAt returns dC/dt at real time t.
func (c *Sinusoid) RateAt(t float64) float64 {
	return 1 + c.amp*math.Sin(2*math.Pi*t/c.period+c.phase)
}
