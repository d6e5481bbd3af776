package clock

import (
	"math"
	"testing"
)

func TestSlewingPassThrough(t *testing.T) {
	c := NewSlewing(NewDrifting(0, 0, 0), 0.01)
	for _, at := range []float64{0, 10, 100} {
		if got := c.Read(at); got != at {
			t.Errorf("Read(%v) = %v", at, got)
		}
	}
	if got := c.PendingCorrection(); got != 0 {
		t.Errorf("PendingCorrection = %v", got)
	}
}

func TestSlewingAbsorbsForwardCorrection(t *testing.T) {
	c := NewSlewing(NewDrifting(0, 0, 0), 0.01)
	c.Read(0)
	c.Set(0, 1) // one second ahead, absorbed at 10 ms/s
	if got := c.Read(0); got != 0 {
		t.Errorf("correction applied instantly: %v", got)
	}
	// After 50 s: absorbed 0.5 s.
	if got, want := c.Read(50), 50.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(50) = %v, want %v", got, want)
	}
	if got := c.PendingCorrection(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("PendingCorrection = %v, want 0.5", got)
	}
	// After 100 s: fully absorbed; no overshoot afterwards.
	if got, want := c.Read(100), 101.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(100) = %v, want %v", got, want)
	}
	if got, want := c.Read(200), 201.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(200) = %v, want %v (overshoot?)", got, want)
	}
	if got := c.PendingCorrection(); got != 0 {
		t.Errorf("PendingCorrection after absorption = %v", got)
	}
}

func TestSlewingBackwardCorrectionIsMonotonic(t *testing.T) {
	c := NewSlewing(NewDrifting(0, 0, 0), 0.5)
	c.Read(0)
	c.Set(0, -10) // huge backward correction
	prev := math.Inf(-1)
	for at := 0.0; at <= 40; at += 0.5 {
		v := c.Read(at)
		if v < prev {
			t.Fatalf("slewed clock went backward at t=%v: %v < %v", at, v, prev)
		}
		prev = v
	}
	// Fully absorbed: -10 at 0.5/s needs 20 s of clock progress.
	if got, want := c.Read(41), 31.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(41) = %v, want %v", got, want)
	}
}

func TestSlewingAccumulatesCorrections(t *testing.T) {
	c := NewSlewing(NewDrifting(0, 0, 0), 0.01)
	c.Read(0)
	c.Set(0, 1)
	c.Set(0, 3) // relative to current reading (still 0): total pending 3
	if got := c.PendingCorrection(); math.Abs(got-3) > 1e-9 {
		t.Errorf("PendingCorrection = %v, want 3", got)
	}
}

func TestSlewingBadRateDefaults(t *testing.T) {
	for _, rate := range []float64{-1, 0, 1.5} {
		c := NewSlewing(NewDrifting(0, 0, 0), rate)
		if c.rate != 0.0005 {
			t.Errorf("rate %v not defaulted: %v", rate, c.rate)
		}
	}
}

func TestSlewingWithDriftingOscillator(t *testing.T) {
	// The oscillator drifts 1%; corrections are absorbed relative to the
	// oscillator's own progress.
	c := NewSlewing(NewDrifting(0, 0, 0.01), 0.1)
	c.Read(0)
	c.Set(0, 2.02) // reading is 0, correction +2.02
	// After 2 real seconds the oscillator advanced 2.02; absorption is
	// 0.1*2.02 = 0.202.
	if got, want := c.Read(2), 2.02+0.202; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(2) = %v, want %v", got, want)
	}
}
