package clock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDriftingRead(t *testing.T) {
	tests := []struct {
		name  string
		drift float64
		t0    float64
		v0    float64
		at    float64
		want  float64
	}{
		{name: "perfect", drift: 0, t0: 0, v0: 0, at: 100, want: 100},
		{name: "fast", drift: 0.01, t0: 0, v0: 0, at: 100, want: 101},
		{name: "slow", drift: -0.01, t0: 0, v0: 0, at: 100, want: 99},
		{name: "offset start", drift: 0, t0: 10, v0: 50, at: 20, want: 60},
		{name: "hour a day fast", drift: 1.0 / 24, t0: 0, v0: 0, at: 86400, want: 86400 + 3600},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewDrifting(tt.t0, tt.v0, tt.drift)
			if got := c.Read(tt.at); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("Read(%v) = %v, want %v", tt.at, got, tt.want)
			}
		})
	}
}

func TestDriftingSet(t *testing.T) {
	c := NewDrifting(0, 0, 0.1)
	c.Set(10, 1000)
	if got := c.Read(10); got != 1000 {
		t.Errorf("Read right after Set = %v, want 1000", got)
	}
	// Drift survives the reset.
	if got, want := c.Read(20), 1000+10*1.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("Read(20) = %v, want %v", got, want)
	}
}

// TestDriftingBoundInvariant: for any drift d with |d| <= delta, the clock
// satisfies the paper's integrated drift relation
// C(t0) + dt - delta*dt <= C(t0+dt) <= C(t0) + dt + delta*dt.
func TestDriftingBoundInvariant(t *testing.T) {
	f := func(driftSeed, dtSeed float64) bool {
		delta := 1e-4
		drift := math.Mod(math.Abs(driftSeed), 2*delta) - delta // in [-delta, delta)
		dt := math.Mod(math.Abs(dtSeed), 1e6)
		if math.IsNaN(drift) || math.IsNaN(dt) {
			return true
		}
		c := NewDrifting(0, 0, drift)
		v := c.Read(dt)
		lo := dt - delta*dt - 1e-9
		hi := dt + delta*dt + 1e-9
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPerfect: a drift-free clock set to real time is the paper's
// standard; it reads real time exactly.
func TestPerfect(t *testing.T) {
	c := NewDrifting(0, 0, 0)
	for _, at := range []float64{0, 1, 1e6} {
		if got := c.Read(at); got != at {
			t.Errorf("drift-free Read(%v) = %v", at, got)
		}
	}
}

func TestStopped(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	c := NewStopped(inner, 100)
	if got := c.Read(50); got != 50 {
		t.Errorf("pre-failure Read(50) = %v", got)
	}
	if got := c.Read(150); got != 100 {
		t.Errorf("post-failure Read(150) = %v, want frozen 100", got)
	}
	if got := c.Read(1e6); got != 100 {
		t.Errorf("value advanced after stop: %v", got)
	}
	c.Set(200, 500)
	if got := c.Read(300); got != 500 {
		t.Errorf("Set after stop: Read = %v, want 500 (still frozen)", got)
	}
}

func TestStoppedSetBeforeFailure(t *testing.T) {
	c := NewStopped(NewDrifting(0, 0, 0), 100)
	c.Set(10, 1000)
	if got := c.Read(20); got != 1010 {
		t.Errorf("Read(20) = %v, want 1010", got)
	}
	// Freezes at value as of failAt.
	if got := c.Read(200); got != 1090 {
		t.Errorf("frozen value = %v, want 1090", got)
	}
}

func TestRacing(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	c := NewRacing(inner, 100, 2.0)
	if got := c.Read(50); got != 50 {
		t.Errorf("pre-failure Read(50) = %v", got)
	}
	// After failAt the clock gains 2 seconds per second.
	if got := c.Read(110); got != 120 {
		t.Errorf("Read(110) = %v, want 120", got)
	}
	if got := c.Read(111) - 120; got != 2.0 {
		t.Errorf("rate after failure = %v, want 2", got)
	}
	// Reset during the race: race continues from the new value.
	c.Set(110, 0)
	if got := c.Read(115); got != 10 {
		t.Errorf("Read(115) after reset = %v, want 10", got)
	}
}

func TestRacingPreFailureRate(t *testing.T) {
	inner := NewDrifting(0, 0, 0.25)
	c := NewRacing(inner, 1000, 2.0)
	before := c.Read(1)
	if got := (c.Read(5) - before) / 4; math.Abs(got-1.25) > 1e-9 {
		t.Errorf("pre-failure rate = %v, want 1.25", got)
	}
	c.Set(10, 0)
	if got := c.Read(14); math.Abs(got-5) > 1e-9 {
		t.Errorf("pre-failure Set/Read = %v, want 5", got)
	}
}

func TestRacingFourPercentADay(t *testing.T) {
	// The paper's recovery experiment: a clock "about four percent fast"
	// (an hour a day). Racing factor 25/24 gains one hour per day.
	c := NewRacing(NewDrifting(0, 0, 0), 0, 25.0/24)
	gain := c.Read(86400) - 86400
	if math.Abs(gain-3600) > 1e-6 {
		t.Errorf("one-day gain = %v s, want 3600", gain)
	}
}

func TestStuck(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	c := NewStuck(inner, 100)
	c.Set(50, 1000)
	if got := c.Read(60); got != 1010 {
		t.Errorf("pre-failure set ignored: Read = %v", got)
	}
	c.Set(150, 0)
	if got := c.Read(150); got != 1100 {
		t.Errorf("post-failure Set not ignored: Read = %v, want 1100", got)
	}
}

func TestMonotonicTracksInner(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	m := NewMonotonic(inner, 0.5)
	for _, at := range []float64{0, 1, 5, 100} {
		if got := m.Read(at); got != at {
			t.Errorf("Read(%v) = %v", at, got)
		}
	}
	if got := m.Offset(); got != 0 {
		t.Errorf("Offset = %v, want 0", got)
	}
}

func TestMonotonicBackwardSet(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	m := NewMonotonic(inner, 0.5)
	m.Read(100) // mono = 100
	inner.Set(100, 90)

	// Immediately after the backward set the monotonic view holds at 100.
	if got := m.Read(100); got != 100 {
		t.Errorf("Read after backward set = %v, want 100", got)
	}
	// While catching up, mono advances at half the clock rate.
	if got := m.Read(110); got != 105 {
		t.Errorf("Read(110) = %v, want 105", got)
	}
	if off := m.Offset(); math.Abs(off-5) > 1e-9 {
		t.Errorf("Offset = %v, want 5", off)
	}
	// Inner reaches mono at t=120 (inner=110, mono=110).
	if got := m.Read(120); got != 110 {
		t.Errorf("Read(120) = %v, want 110", got)
	}
	// Fully caught up: tracks inner exactly again.
	if got := m.Read(130); got != 120 {
		t.Errorf("Read(130) = %v, want 120", got)
	}
	if off := m.Offset(); off != 0 {
		t.Errorf("Offset after catch-up = %v", off)
	}
}

func TestMonotonicForwardSet(t *testing.T) {
	inner := NewDrifting(0, 0, 0)
	m := NewMonotonic(inner, 0.5)
	m.Read(100)
	inner.Set(100, 500)
	if got := m.Read(100); got != 500 {
		t.Errorf("forward set not followed: %v", got)
	}
}

func TestMonotonicNeverDecreases(t *testing.T) {
	inner := NewDrifting(0, 0, 0.01)
	m := NewMonotonic(inner, 0.5)
	prev := math.Inf(-1)
	for i := 0; i < 1000; i++ {
		at := float64(i)
		if i%37 == 0 {
			// Adversarial backward jumps.
			inner.Set(at, inner.Read(at)-5)
		}
		if i%113 == 0 {
			inner.Set(at, inner.Read(at)+3)
		}
		v := m.Read(at)
		if v < prev {
			t.Fatalf("monotonic clock decreased at t=%v: %v < %v", at, v, prev)
		}
		prev = v
	}
}

func TestMonotonicBadCatchupRateDefaults(t *testing.T) {
	for _, rate := range []float64{-1, 0, 1, 2} {
		m := NewMonotonic(NewDrifting(0, 0, 0), rate)
		if m.catchupRate != 0.5 {
			t.Errorf("catchupRate %v not defaulted: %v", rate, m.catchupRate)
		}
	}
}

func TestMonotonicOffsetBeforeFirstRead(t *testing.T) {
	m := NewMonotonic(NewDrifting(0, 0, 0), 0.5)
	if got := m.Offset(); got != 0 {
		t.Errorf("Offset before first read = %v", got)
	}
}
