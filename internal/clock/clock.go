// Package clock provides the clock models of the paper's Section 2: clocks
// are functions C(t) mapping real time to clock time, continuous between
// resets, with a bounded drift rate |1 - dC/dt| <= delta. The package also
// implements the failure modes enumerated in Section 1.1 (a clock "may fail
// in many ways, such as by stopping, racing ahead, or refusing to change its
// value when reset") and, in Slewing, the monotonic clock sketched there: a
// clock that runs more slowly after a backward set instead of stepping.
//
// All clocks are driven by an externally supplied real time t (float64
// seconds); they perform no I/O and spawn no goroutines, which keeps
// simulations deterministic. Reads must be issued with non-decreasing t.
package clock

// Clock is a settable clock: a mapping from real time to clock time that a
// time server may read and reset. Implementations are not safe for
// concurrent use; in simulations all access is serialized by the event
// loop.
type Clock interface {
	// Read returns the clock's value at real time t. Real time must not
	// decrease across calls to Read or Set.
	Read(t float64) float64
	// Set resets the clock to value at real time t. A clock that refuses
	// to change (the paper's stuck failure) may ignore the call.
	Set(t, value float64)
}

// Drifting is a clock that advances at a constant rate 1+drift between
// resets. It is the paper's basic model: correct bookkeeping requires only
// |drift| <= delta for the claimed bound delta.
type Drifting struct {
	t0    float64 // real time of last reset (or creation)
	v0    float64 // clock value at t0
	drift float64 // rate offset: dC/dt = 1 + drift
}

var _ Clock = (*Drifting)(nil)

// NewDrifting returns a clock that reads value at real time t and then
// advances at rate 1+drift.
func NewDrifting(t, value, drift float64) *Drifting {
	return &Drifting{t0: t, v0: value, drift: drift}
}

// Read returns v0 + (t-t0)*(1+drift).
func (c *Drifting) Read(t float64) float64 {
	return c.v0 + (t-c.t0)*(1+c.drift)
}

// Set resets the clock value; the drift rate is a property of the
// underlying oscillator and survives resets.
func (c *Drifting) Set(t, value float64) {
	c.t0 = t
	c.v0 = value
}
