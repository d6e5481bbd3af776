// Package clock provides the clock models of the paper's Section 2: clocks
// are functions C(t) mapping real time to clock time, continuous between
// resets, with a bounded drift rate |1 - dC/dt| <= delta. The package also
// implements the failure modes enumerated in Section 1.1 (a clock "may fail
// in many ways, such as by stopping, racing ahead, or refusing to change its
// value when reset") and the monotonic-clock wrapper sketched there.
//
// All clocks are driven by an externally supplied real time t (float64
// seconds); they perform no I/O and spawn no goroutines, which keeps
// simulations deterministic. Reads must be issued with non-decreasing t;
// models that integrate a time-varying rate enforce this.
package clock

import (
	"fmt"
	"math"
	"math/rand/v2"
)

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

// Rated is implemented by clocks that can report the actual instantaneous
// rate dC/dt at the last read. It is used by tests and experiments to
// verify drift-bound invariants; the synchronization algorithms never use
// it (a server only knows its claimed bound).
type Rated interface {
	// ActualRate returns dC/dt at the most recent Read or Set.
	ActualRate() float64
}

// Drifting is a clock that advances at a constant rate 1+drift between
// resets. It is the paper's basic model: correct bookkeeping requires only
// |drift| <= delta for the claimed bound delta.
type Drifting struct {
	t0    float64 // real time of last reset (or creation)
	v0    float64 // clock value at t0
	drift float64 // rate offset: dC/dt = 1 + drift
}

var (
	_ Clock = (*Drifting)(nil)
	_ Rated = (*Drifting)(nil)
)

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

// ActualRate returns 1+drift.
func (c *Drifting) ActualRate() float64 { return 1 + c.drift }

// Drift returns the constant rate offset.
func (c *Drifting) Drift() float64 { return c.drift }

// RandomWalk is a clock whose instantaneous rate offset performs a bounded
// random walk within [-maxDrift, +maxDrift], resampled every step seconds
// of real time. It models the paper's "usually stable" oscillators and the
// i.i.d. per-interval drift variable alpha of Theorem 8. The walk reflects
// at the bounds, so |1 - dC/dt| <= maxDrift always holds and maxDrift is a
// valid claimed bound.
type RandomWalk struct {
	rng      *rand.Rand
	maxDrift float64
	step     float64 // resample period, real seconds
	sigma    float64 // per-step rate perturbation scale: a quarter of maxDrift

	lastT float64 // real time up to which value is integrated
	value float64 // clock value at lastT
	rate  float64 // current rate offset
}

var (
	_ Clock = (*RandomWalk)(nil)
	_ Rated = (*RandomWalk)(nil)
)

// RandomWalkConfig configures a RandomWalk clock.
type RandomWalkConfig struct {
	// MaxDrift bounds |1 - dC/dt|. Must be non-negative.
	MaxDrift float64
	// Step is the real-time resampling period in seconds. Defaults to 60.
	Step float64
	// InitialDrift is the starting rate offset, clamped to
	// [-MaxDrift, MaxDrift].
	InitialDrift float64
	// Seed seeds the walk's private PRNG.
	Seed uint64
}

// NewRandomWalk returns a random-walk clock reading value at real time t.
func NewRandomWalk(t, value float64, cfg RandomWalkConfig) *RandomWalk {
	if cfg.Step <= 0 {
		cfg.Step = 60
	}
	if cfg.MaxDrift < 0 {
		cfg.MaxDrift = 0
	}
	drift := math.Max(-cfg.MaxDrift, math.Min(cfg.MaxDrift, cfg.InitialDrift))
	return &RandomWalk{
		rng:      rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		maxDrift: cfg.MaxDrift,
		step:     cfg.Step,
		sigma:    0.25 * cfg.MaxDrift,
		lastT:    t,
		value:    value,
		rate:     drift,
	}
}

// Read integrates the walk forward to real time t and returns the clock
// value. It panics if t precedes the previous Read or Set: a backwards
// read would require un-integrating the walk.
func (c *RandomWalk) Read(t float64) float64 {
	c.advance(t)
	return c.value
}

// Set resets the clock value at real time t; the walk's rate state is
// unaffected.
func (c *RandomWalk) Set(t, value float64) {
	c.advance(t)
	c.value = value
}

// ActualRate returns the current instantaneous rate dC/dt.
func (c *RandomWalk) ActualRate() float64 { return 1 + c.rate }

// MaxDrift returns the walk's bound on |1 - dC/dt|.
func (c *RandomWalk) MaxDrift() float64 { return c.maxDrift }

func (c *RandomWalk) advance(t float64) {
	if t < c.lastT {
		panic(fmt.Sprintf("clock: RandomWalk read backwards: %v < %v", t, c.lastT))
	}
	for t-c.lastT >= c.step {
		c.value += c.step * (1 + c.rate)
		c.lastT += c.step
		c.resample()
	}
	if dt := t - c.lastT; dt > 0 {
		c.value += dt * (1 + c.rate)
		c.lastT = t
	}
}

// resample perturbs the rate and reflects it into [-maxDrift, maxDrift].
func (c *RandomWalk) resample() {
	if c.maxDrift <= 0 {
		return
	}
	r := c.rate + c.rng.NormFloat64()*c.sigma
	for r > c.maxDrift || r < -c.maxDrift {
		if r > c.maxDrift {
			r = 2*c.maxDrift - r
		}
		if r < -c.maxDrift {
			r = -2*c.maxDrift - r
		}
	}
	c.rate = r
}
