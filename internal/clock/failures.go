package clock

// This file implements the clock failure modes of Section 1.1: "A clock may
// fail in many ways, such as by stopping, racing ahead, or refusing to
// change its value when reset." Each failure is a wrapper that can be armed
// at a chosen real time, so experiments can run a healthy prefix before the
// fault.

// Stopped wraps a clock that freezes at a given real time: after FailAt the
// value no longer advances. Set still moves the frozen value (the hardware
// register is writable; the oscillator is dead).
type Stopped struct {
	inner  Clock
	failAt float64

	frozen    bool
	frozenVal float64
}

var _ Clock = (*Stopped)(nil)

// NewStopped wraps inner with a stop failure at real time failAt.
func NewStopped(inner Clock, failAt float64) *Stopped {
	return &Stopped{inner: inner, failAt: failAt}
}

// Read returns the wrapped clock's value before the failure and the frozen
// value afterwards.
func (c *Stopped) Read(t float64) float64 {
	if t >= c.failAt {
		if !c.frozen {
			c.frozen = true
			c.frozenVal = c.inner.Read(c.failAt)
		}
		return c.frozenVal
	}
	return c.inner.Read(t)
}

// Set writes through before the failure and overwrites the frozen value
// afterwards.
func (c *Stopped) Set(t, value float64) {
	if t >= c.failAt {
		if !c.frozen {
			c.frozen = true
		}
		c.frozenVal = value
		return
	}
	c.inner.Set(t, value)
}

// Racing wraps a clock that races ahead from a given real time: after
// FailAt every real second advances the clock by Factor seconds. The
// paper's Section 3 recovery experiment used a clock about four percent
// fast (roughly an hour a day) whose claimed bound was one second a day.
type Racing struct {
	inner  Clock
	failAt float64
	factor float64

	failed bool
	baseT  float64 // real time the race began or of last Set after failure
	baseV  float64 // clock value then
}

var _ Clock = (*Racing)(nil)

// NewRacing wraps inner so that from real time failAt onward the clock
// advances factor clock-seconds per real second.
func NewRacing(inner Clock, failAt, factor float64) *Racing {
	return &Racing{inner: inner, failAt: failAt, factor: factor}
}

// Read returns the racing value after the failure.
func (c *Racing) Read(t float64) float64 {
	if t < c.failAt {
		return c.inner.Read(t)
	}
	c.arm()
	return c.baseV + (t-c.baseT)*c.factor
}

// Set resets the clock; the race continues from the new value.
func (c *Racing) Set(t, value float64) {
	if t < c.failAt {
		c.inner.Set(t, value)
		return
	}
	c.arm()
	c.baseT, c.baseV = t, value
}

func (c *Racing) arm() {
	if c.failed {
		return
	}
	c.failed = true
	c.baseT = c.failAt
	c.baseV = c.inner.Read(c.failAt)
}

// Stuck wraps a clock that refuses to change its value when reset: Set
// calls at or after FailAt are silently ignored, while the clock keeps
// running on its own oscillator.
type Stuck struct {
	inner  Clock
	failAt float64
}

var _ Clock = (*Stuck)(nil)

// NewStuck wraps inner so Set calls from real time failAt onward are
// dropped.
func NewStuck(inner Clock, failAt float64) *Stuck {
	return &Stuck{inner: inner, failAt: failAt}
}

// Read passes through to the wrapped clock.
func (c *Stuck) Read(t float64) float64 { return c.inner.Read(t) }

// Set writes through only before the failure time.
func (c *Stuck) Set(t, value float64) {
	if t >= c.failAt {
		return
	}
	c.inner.Set(t, value)
}
