package core

import (
	"math"
	"testing"

	"disttime/internal/interval"
)

func TestRateTrackerEstimate(t *testing.T) {
	var rt RateTracker
	// Remote runs 1e-4 fast against the local clock.
	rt.Observe(2, RateSample{Local: 0, Remote: 0, RTT: 0.1})
	rt.Observe(2, RateSample{Local: 1000, Remote: 1000.1, RTT: 0.1})
	e := rt.Estimate(2)
	if !e.Valid {
		t.Fatal("estimate invalid")
	}
	if math.Abs(e.Rate-1e-4) > 1e-12 {
		t.Errorf("Rate = %v, want 1e-4", e.Rate)
	}
	if math.Abs(e.Err-0.2/1000) > 1e-12 {
		t.Errorf("Err = %v, want 2e-4", e.Err)
	}
	if e.Span != 1000 {
		t.Errorf("Span = %v", e.Span)
	}
	iv := e.Interval()
	if !iv.Contains(1e-4) {
		t.Errorf("rate interval %v excludes true rate", iv)
	}
}

func TestRateTrackerKeepsFirstAndLatest(t *testing.T) {
	var rt RateTracker
	rt.Observe(1, RateSample{Local: 0, Remote: 0, RTT: 0})
	rt.Observe(1, RateSample{Local: 10, Remote: 10.5, RTT: 0})
	rt.Observe(1, RateSample{Local: 100, Remote: 101, RTT: 0})
	e := rt.Estimate(1)
	if e.Span != 100 {
		t.Errorf("Span = %v, want first-to-latest 100", e.Span)
	}
	if math.Abs(e.Rate-0.01) > 1e-12 {
		t.Errorf("Rate = %v, want 0.01", e.Rate)
	}
}

func TestRateTrackerInvalidCases(t *testing.T) {
	var rt RateTracker
	if rt.Estimate(9).Valid {
		t.Error("estimate with no samples should be invalid")
	}
	rt.Observe(1, RateSample{Local: 5, Remote: 5})
	if rt.Estimate(1).Valid {
		t.Error("estimate with one sample should be invalid")
	}
	// Zero span.
	rt.Observe(1, RateSample{Local: 5, Remote: 6})
	if rt.Estimate(1).Valid {
		t.Error("estimate with zero span should be invalid")
	}
}

func TestRateTrackerReset(t *testing.T) {
	var rt RateTracker
	rt.Observe(1, RateSample{Local: 0, Remote: 0})
	rt.Observe(1, RateSample{Local: 10, Remote: 10})
	rt.Observe(2, RateSample{Local: 0, Remote: 0})
	rt.Observe(2, RateSample{Local: 10, Remote: 10})
	rt.ResetAll()
	if rt.Estimate(1).Valid || rt.Estimate(2).Valid {
		t.Error("ResetAll did not clear")
	}
	// A cleared neighbor starts over: its next sample is a first one.
	rt.Observe(2, RateSample{Local: 20, Remote: 20})
	if rt.Estimate(2).Valid {
		t.Error("one sample after ResetAll made an estimate")
	}
}

func TestConsonantWith(t *testing.T) {
	tests := []struct {
		name   string
		e      RateEstimate
		di, dj float64
		want   bool
	}{
		{
			name: "well within",
			e:    RateEstimate{Rate: 1e-5, Err: 0, Valid: true},
			di:   1e-5, dj: 1e-5, want: true,
		},
		{
			name: "dissonant",
			e:    RateEstimate{Rate: 5e-5, Err: 1e-6, Valid: true},
			di:   1e-5, dj: 1e-5, want: false,
		},
		{
			name: "uncertainty saves it",
			e:    RateEstimate{Rate: 5e-5, Err: 4e-5, Valid: true},
			di:   1e-5, dj: 1e-5, want: true,
		},
		{
			name: "invalid estimate is not evidence",
			e:    RateEstimate{Rate: 1, Err: 0},
			di:   1e-5, dj: 1e-5, want: true,
		},
		{
			name: "negative dissonant",
			e:    RateEstimate{Rate: -5e-5, Err: 0, Valid: true},
			di:   1e-5, dj: 1e-5, want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.e.ConsonantWith(tt.di, tt.dj); got != tt.want {
				t.Errorf("ConsonantWith = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestOwnDriftConstraint(t *testing.T) {
	// Observed: neighbor separates at +2e-5 +/- 1e-5; neighbor claims
	// delta_j = 1e-5. Own drift must lie in [-1e-5-2e-5-1e-5, 1e-5-2e-5+1e-5]
	// = [-4e-5, 0].
	e := RateEstimate{Rate: 2e-5, Err: 1e-5, Valid: true}
	iv := OwnDriftConstraint(e, 1e-5)
	if math.Abs(iv.Lo-(-4e-5)) > 1e-18 || math.Abs(iv.Hi-0) > 1e-18 {
		t.Errorf("constraint = %v, want [-4e-5, 0]", iv)
	}
}

// TestRateTrackerDetectsFaultyDriftBound reproduces the Section 5 use
// case end-to-end at the rate level: a clock claiming one second a day but
// actually four percent fast is exposed by consonance checking.
func TestRateTrackerDetectsFaultyDriftBound(t *testing.T) {
	const (
		claimed = 1.0 / 86400 // one second a day
		actual  = 0.04        // four percent fast
	)
	var rt RateTracker
	// Local clock perfect; the faulty neighbor's clock runs at 1.04.
	for _, local := range []float64{0, 600} {
		rt.Observe(1, RateSample{Local: local, Remote: local * (1 + actual), RTT: 0.05})
	}
	e := rt.Estimate(1)
	if !e.Valid {
		t.Fatal("no estimate")
	}
	if e.ConsonantWith(claimed, claimed) {
		t.Error("faulty bound not detected: estimate consonant")
	}
	// And the drift constraint it induces on the local clock is absurd,
	// flagging an invalid bound somewhere.
	constraint := OwnDriftConstraint(e, claimed)
	if interval.Consistent(constraint, interval.Interval{Lo: -claimed, Hi: claimed}) {
		t.Errorf("constraint %v admits the local bound %v despite the absurd rate", constraint, claimed)
	}
}

func TestShiftLocalKeepsEstimateContinuous(t *testing.T) {
	var rt RateTracker
	// Remote runs 1e-4 fast; local clock resets by +5 mid-observation.
	rt.Observe(1, RateSample{Local: 0, Remote: 0, RTT: 0})
	rt.Observe(1, RateSample{Local: 100, Remote: 100.01, RTT: 0})
	// Local clock jumps +5: translate the stored timeline.
	rt.ShiftLocal(5)
	// Post-jump samples arrive on the shifted timeline.
	rt.Observe(1, RateSample{Local: 205, Remote: 200.02, RTT: 0})
	e := rt.Estimate(1)
	if !e.Valid {
		t.Fatal("estimate invalid after shift")
	}
	// Span on the shifted timeline: first sample moved to Local=5, last
	// at 205 -> span 200; remote advanced 200.02 over local 200.
	if math.Abs(e.Rate-1e-4) > 1e-9 {
		t.Errorf("Rate = %v, want 1e-4 despite the local reset", e.Rate)
	}
	if e.Span != 200 {
		t.Errorf("Span = %v, want 200", e.Span)
	}
}

func TestShiftLocalEmptyTracker(t *testing.T) {
	var rt RateTracker
	rt.ShiftLocal(10) // no panic on an empty tracker
	if rt.Estimate(1).Valid {
		t.Error("phantom estimate")
	}
}

// TestRateTrackerGrowsInOneStep: a first sample at a high id grows the
// tracker in one allocation, not one per id below it.
func TestRateTrackerGrowsInOneStep(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var rt RateTracker
		rt.Observe(1000, RateSample{Local: 1})
	})
	if allocs > 1 {
		t.Fatalf("a first Observe at id 1000 allocates %v times, want 1", allocs)
	}
}
