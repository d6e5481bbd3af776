package clock

import (
	"math"
	"testing"
)

func TestSinusoidReadClosedForm(t *testing.T) {
	// Compare the closed form against numeric integration of the rate.
	c := NewSinusoid(0, 0, 5e-5, 3600, 0.7)
	integrated := 0.0
	const dt = 0.01
	for step := 0; step < 100000; step++ {
		tt := float64(step) * dt
		integrated += c.RateAt(tt+dt/2) * dt
	}
	at := 1000.0
	got := c.Read(at)
	// Numeric integral up to t=1000 is the first 100000 steps.
	if math.Abs(got-integrated) > 1e-6 {
		t.Errorf("Read(%v) = %v, numeric integral = %v", at, got, integrated)
	}
}

func TestSinusoidDriftBoundInvariant(t *testing.T) {
	// |C(t0+d) - C(t0) - d| <= amp*d for all windows: amp is a valid
	// claimed bound.
	const amp = 1e-4
	c := NewSinusoid(0, 0, amp, 600, 1.2)
	prevT, prevV := 0.0, c.Read(0)
	for step := 1; step <= 5000; step++ {
		tt := float64(step) * 1.7
		v := c.Read(tt)
		d := tt - prevT
		if dev := math.Abs((v - prevV) - d); dev > amp*d+1e-12 {
			t.Fatalf("window ending %v: deviation %v exceeds amp*d %v", tt, dev, amp*d)
		}
		prevT, prevV = tt, v
	}
}

func TestSinusoidSelfCancelsOverPeriod(t *testing.T) {
	// Over a full period the oscillating drift integrates to ~zero.
	c := NewSinusoid(0, 0, 1e-3, 100, 0)
	if got := c.Read(100); math.Abs(got-100) > 1e-9 {
		t.Errorf("Read(period) = %v, want 100 (self-cancelling)", got)
	}
	// Half a period accumulates the maximum offset 2*A*P/(2 pi).
	want := 50 + 2*1e-3*100/(2*math.Pi)
	if got := c.Read(50); math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(half period) = %v, want %v", got, want)
	}
}

func TestSinusoidSet(t *testing.T) {
	c := NewSinusoid(0, 0, 1e-4, 3600, 0)
	c.Read(500)
	c.Set(500, 1000)
	if got := c.Read(500); got != 1000 {
		t.Errorf("Read after Set = %v", got)
	}
	// Modulation phase continues from absolute time, not from the reset.
	rate := c.RateAt(500)
	want := 1 + 1e-4*math.Sin(2*math.Pi*500/3600)
	if math.Abs(rate-want) > 1e-12 {
		t.Errorf("RateAt(500) = %v, want %v", rate, want)
	}
}

func TestSinusoidDefaults(t *testing.T) {
	c := NewSinusoid(0, 0, -1, 0, 0)
	if c.amp != 0 {
		t.Errorf("negative amplitude not clamped: %v", c.amp)
	}
	if c.period != 86400 {
		t.Errorf("period not defaulted: %v", c.period)
	}
	if got := c.ActualRate(); got != 1 {
		t.Errorf("zero-amplitude rate = %v", got)
	}
}

func TestSinusoidServerCorrectness(t *testing.T) {
	// A server over a sinusoidal clock claiming delta = amplitude stays
	// correct without ever synchronizing.
	const amp = 5e-5
	c := NewSinusoid(0, 0, amp, 3600, 0.3)
	for _, tt := range []float64{0, 100, 1800, 3600, 86400} {
		v := c.Read(tt)
		e := 0.01 + amp*tt // initial error + worst-case deterioration
		if math.Abs(v-tt) > e {
			t.Fatalf("t=%v: offset %v exceeds claimed-bound error %v", tt, v-tt, e)
		}
	}
}
