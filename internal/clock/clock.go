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
//
// It is also the one clock a time server can steer (the rate discipline
// of DESIGN.md §3): its oscillator ticks at 1+drift per real second
// whatever is done to it, and Steer sets the rate at which its value
// follows those ticks, as a disciplined hardware clock's frequency
// correction does.
type Drifting struct {
	t0    float64 // real time of last reset, steer (or creation)
	v0    float64 // clock value at t0
	drift float64 // the oscillator's rate offset: ticks advance 1+drift per real second
	rate  float64 // the clock's rate offset: dC/dt = 1 + rate; drift until steered
}

var _ Clock = (*Drifting)(nil)

// NewDrifting returns a clock that reads value at real time t and then
// advances at rate 1+drift.
func NewDrifting(t, value, drift float64) *Drifting {
	return &Drifting{t0: t, v0: value, drift: drift, rate: drift}
}

// Read returns v0 + (t-t0)*(1+rate).
func (c *Drifting) Read(t float64) float64 {
	return c.v0 + (t-c.t0)*(1+c.rate)
}

// Set resets the clock value; the oscillator and the steer survive
// resets.
func (c *Drifting) Set(t, value float64) {
	c.t0 = t
	c.v0 = value
}

// Ticks returns the oscillator's raw ticks between real times t0 and t,
// (t-t0)*(1+drift), which no Set or Steer changes.
func (c *Drifting) Ticks(t0, t float64) float64 {
	return (t - t0) * (1 + c.drift)
}

// Steer runs the clock from real time t on, its value continuous at t,
// at its oscillator's ticks over 1+centre, (1+drift)/(1+centre), centre
// being the drift the server believes its oscillator has; steered false
// returns it to the oscillator's own rate, 1+drift.
func (c *Drifting) Steer(t, centre float64, steered bool) {
	c.v0, c.t0 = c.Read(t), t
	c.rate = c.drift
	if steered {
		c.rate = (1+c.drift)/(1+centre) - 1
	}
}
