package udptime

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"

	"disttime/internal/clock"
	"disttime/internal/core"
)

// TestHeldMeasurementAges is the regression test for measurements applied
// unaged: rule IM-2 lets a reply wait for the sync instant only if both
// edges widen by delta per second waited (core.Server does so through
// Reply.Age, the scale engine incrementally). A measurement that waited
// 10 s for a slow sibling query, on a clock whose oscillator is trusted
// to 1e-3, must be applied at least 10 ms wider on each edge than it
// arrived.
func TestHeldMeasurementAges(t *testing.T) {
	const held, delta = 10 * time.Second, 1e-3
	local := time.Now()
	m := Measurement{
		Addr:      "a",
		C:         local.Add(time.Second),
		E:         5 * time.Millisecond,
		RTT:       2 * time.Millisecond,
		LocalRecv: local,
		Delta:     delta,
	}
	fresh := m.OffsetInterval()
	m.recv = time.Now().Add(-held)
	if got := m.OffsetInterval(); got != fresh {
		t.Errorf("OffsetInterval describes the arrival and must not age: %v, fresh %v", got, fresh)
	}
	want := delta * held.Seconds()

	dc := mustClockPPM(t, delta*1e6)
	applied, err := SyncIM(dc, []Measurement{m})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Lo-applied.Lo < want || applied.Hi-fresh.Hi < want {
		t.Errorf("SyncIM applied %v: want each edge of %v moved out by >= %v s", applied, fresh, want)
	}

	sel, err := SyncSelect(dc, []Measurement{m, m})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Lo-sel.Interval.Lo < want || sel.Interval.Hi-fresh.Hi < want {
		t.Errorf("SyncSelect applied %v: want each edge of %v moved out by >= %v s", sel.Interval, fresh, want)
	}

	// A measurement built by hand carries no receive instant and ages 0:
	// a clock never set adopts its interval, up to the float rounding of
	// moving the clock there and back.
	m.recv = time.Time{}
	applied, err = SyncIM(mustClockPPM(t, delta*1e6), []Measurement{m})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(applied.Lo-fresh.Lo) > 1e-12 || math.Abs(applied.Hi-fresh.Hi) > 1e-12 {
		t.Errorf("hand-built measurement applied as %v, want %v", applied, fresh)
	}
}

func mustClockPPM(t *testing.T, ppm float64) *DisciplinedClock {
	t.Helper()
	dc, err := NewDisciplinedClock(ppm)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// TestReadingCoversServerInterval holds the one float64 -> time.Time
// boundary, DisciplinedClock.Now's conversion of its server's reading: for
// seeded offsets up to ±1e8 s, inherited errors from 0 to 1e4 s and
// elapsed times up to 1e6 s, each drawn over many magnitudes, the
// [C−E, C+E] it reports in whole nanoseconds contains the float64
// interval the core.Server holds, compared exactly. A clock whose error
// is unbounded reports itself unsynchronized.
func TestReadingCoversServerInterval(t *testing.T) {
	wall := time.Now().Round(0)
	rng := rand.New(rand.NewPCG(33, 1))
	// upTo draws from [0, max), log-uniform over 17 decades, zero now and then.
	upTo := func(max float64) float64 {
		if rng.IntN(16) == 0 {
			return 0
		}
		return max * math.Pow(10, -17*rng.Float64())
	}
	exact := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	billion := big.NewRat(1e9, 1)
	for i := 0; i < 20000; i++ {
		off, eps, elapsed := upTo(1e8), upTo(1e4), upTo(1e6)
		if rng.IntN(2) == 0 {
			off = -off
		}
		srv, err := core.NewServer(0, core.Config{Clock: clock.NewDrifting(0, 0, 0), Delta: 100e-6, InitialError: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetClock(0, off, eps)
		r := srv.Reading(elapsed)
		c, e, synced := reading(wall, r)
		if !synced {
			t.Fatalf("<%v, %v> reported unsynchronized", r.C, r.E)
		}
		lo := new(big.Rat).SetInt64(int64(c.Add(-e).Sub(wall)))
		hi := new(big.Rat).SetInt64(int64(c.Add(e).Sub(wall)))
		wantLo := new(big.Rat).Mul(new(big.Rat).Sub(exact(r.C), exact(r.E)), billion)
		wantHi := new(big.Rat).Mul(new(big.Rat).Add(exact(r.C), exact(r.E)), billion)
		if lo.Cmp(wantLo) > 0 || hi.Cmp(wantHi) < 0 {
			t.Fatalf("<C=%v s, E=%v s> reported as [%v, %v] ns, which misses [%v, %v] ns",
				r.C, r.E, lo, hi, wantLo.FloatString(3), wantHi.FloatString(3))
		}
	}

	if _, _, synced := reading(wall, core.Reading{C: 1, E: math.Inf(1)}); synced {
		t.Error("an unbounded error reported synchronized")
	}
	if _, _, synced := mustClock(t).Now(); synced {
		t.Error("a clock never set reported synchronized")
	}
}

// TestBoundsRoundOutward pins the two Duration-domain helpers at 1 ns
// granularity: an error bound or a staleness charge that falls between
// two nanoseconds takes the larger, and an exact one is left alone.
func TestBoundsRoundOutward(t *testing.T) {
	for _, tc := range []struct {
		eps, elapsed time.Duration
		ppm          float64
		want         time.Duration
	}{
		{0, 0, 100, 0},
		{0, time.Second, 0, 0},
		{0, time.Second, 100, 100 * time.Microsecond},       // exact
		{0, time.Nanosecond, 1, time.Nanosecond},            // 1e-6 ns
		{0, 10 * time.Microsecond, 50, time.Nanosecond},     // 0.5 ns
		{0, 10*time.Microsecond + 1, 100, 2},                // 1.0001 ns
		{time.Second, time.Nanosecond, 1, time.Second + 1},  // below float64's spacing at 1e9
		{7, 999 * time.Millisecond, 1, 7 + 999},             // exact
		{math.MaxInt64 / 2, 3, 500000, math.MaxInt64/2 + 2}, // eps stays exact: 1.5 ns
		{5, -time.Second, 100, 5},                           // a clock behind its anchor accrues nothing
	} {
		if got := agedError(tc.eps, tc.elapsed, tc.ppm); got != tc.want {
			t.Errorf("agedError(%d ns, %d ns, %v ppm) = %d ns, want %d", tc.eps, tc.elapsed, tc.ppm, got, tc.want)
		}
	}
	for _, tc := range []struct {
		d    time.Duration
		ppm  float64
		want time.Duration
	}{
		{0, 100, 0},
		{time.Millisecond, 0, time.Millisecond},
		{time.Millisecond, 100, time.Millisecond + 100}, // exact
		{time.Nanosecond, 1, 2},                         // 1.000001 ns
		{time.Millisecond, 0.5, time.Millisecond + 1},   // 0.5 ns over
	} {
		if got := stretch(tc.d, tc.ppm); got != tc.want {
			t.Errorf("stretch(%d ns, %v ppm) = %d ns, want %d", tc.d, tc.ppm, got, tc.want)
		}
	}

	// Both clock sources round their error up: any drift bound over any
	// elapsed time shows as at least a nanosecond of error.
	sys, err := NewSystemClock(0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dc := mustClockPPM(t, 1e-3)
	if err := dc.Set(time.Now(), 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if _, e, _ := sys.Now(); e < time.Nanosecond {
		t.Errorf("SystemClock error after 1 ms at 1e-3 ppm = %v, want >= 1 ns", e)
	}
	if _, e, _ := dc.Now(); e < time.Nanosecond {
		t.Errorf("DisciplinedClock error after 1 ms at 1e-3 ppm = %v, want >= 1 ns", e)
	}
}
