package udptime

import (
	"math"
	"slices"
	"testing"
	"time"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/interval"
)

// TestHeldMeasurementAges is the regression test for measurements applied
// unaged: rule IM-2 lets a reply wait for the sync instant only if both
// edges widen by delta per second waited (core.Server does so through
// Reply.Age, the scale engine incrementally). A measurement that waited
// 10 s for a slow sibling query, on an oscillator trusted to 1e-3, must
// be applied at least 10 ms wider on each edge than it arrived.
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

	dc := mustClock(t)
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

	// A measurement built by hand carries no receive instant and ages 0.
	m.recv = time.Time{}
	applied, err = SyncIM(mustClock(t), []Measurement{m})
	if err != nil {
		t.Fatal(err)
	}
	if applied != fresh {
		t.Errorf("hand-built measurement applied as %v, want %v", applied, fresh)
	}
}

// TestSyncSelectMatchesSelectIM holds the two callers of interval.Select
// to each other. The same offset intervals go to SyncSelect as
// Measurements and to core.SelectIM as Replies, on a server that reads 0
// (so a reply's interval is its offset interval) and whose own interval is
// too wide to decide anything: it is the one input the simulator votes and
// the UDP client does not, and here it contains every region. With the
// majority clear on both counts, both must flag the same falsetickers and
// adopt the same region; the UDP side moves whole nanoseconds, so its
// midpoint may sit up to 1 ns off and its bound rounds outward to cover
// that.
func TestSyncSelectMatchesSelectIM(t *testing.T) {
	const delta = 1e-4
	type source struct{ c, e, rtt time.Duration }
	honest := []source{
		{250 * time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond},
		{253 * time.Millisecond, 8 * time.Millisecond, time.Millisecond},
		{247 * time.Millisecond, 12 * time.Millisecond, 3 * time.Millisecond},
		{251*time.Millisecond + 333, 9 * time.Millisecond, 1500 * time.Microsecond},
	}
	ahead := source{90 * time.Second, time.Millisecond, time.Millisecond}
	behind := source{-time.Hour, time.Millisecond, time.Millisecond}
	for _, tc := range []struct {
		name         string
		sources      []source
		falsetickers []int
	}{
		{"all honest", honest, nil},
		{"one ahead, last", append(slices.Clone(honest), ahead), []int{4}},
		{"one behind, first", append([]source{behind}, honest...), []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local := time.Now()
			var ms []Measurement
			var replies []core.Reply
			for i, src := range tc.sources {
				ms = append(ms, Measurement{
					C: local.Add(src.c), E: src.e, RTT: src.rtt, LocalRecv: local, Delta: delta,
				})
				replies = append(replies, core.Reply{
					From: i + 1, C: src.c.Seconds(), E: src.e.Seconds(), RTT: src.rtt.Seconds(),
				})
			}

			srv, err := core.NewServer(0, core.Config{Clock: clock.NewDrifting(0, 0, 0), Delta: delta, InitialError: 1e6})
			if err != nil {
				t.Fatal(err)
			}
			res := core.SelectIM{}.Sync(srv, 0, replies)
			dc := mustClock(t)
			sel, err := SyncSelect(dc, ms)
			if err != nil || !res.Reset {
				t.Fatalf("SyncSelect error %v, SelectIM reset %v: want both to adopt", err, res.Reset)
			}

			if !slices.Equal(sel.Falsetickers, tc.falsetickers) || !slices.Equal(res.Inconsistent, tc.falsetickers) {
				t.Errorf("falsetickers: SyncSelect %v, SelectIM %v, want %v", sel.Falsetickers, res.Inconsistent, tc.falsetickers)
			}
			if got, want := len(sel.Survivors)+1, res.Accepted; got != want {
				t.Errorf("SyncSelect survivors + the server's own vote = %d, SelectIM accepted %d", got, want)
			}
			mid, half := srv.Read(0), srv.Epsilon()
			if math.Abs(sel.Interval.Midpoint()-mid) > 1e-12 || math.Abs(sel.Interval.HalfWidth()-half) > 1e-12 {
				t.Errorf("SyncSelect selected %v, SelectIM adopted <C=%v, E=%v>", sel.Interval, mid, half)
			}
			shift, eps := dc.value.Sub(dc.anchor).Seconds(), dc.epsilon.Seconds()
			if math.Abs(shift-mid) > 1e-9 || eps < half || eps-half > 2e-9 {
				t.Errorf("SyncSelect moved the clock by %v s +/- %v s, SelectIM by %v s +/- %v s", shift, eps, mid, half)
			}
		})
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

	// adopt is rule IM-2's reset in the Duration domain: the shift drops
	// its fraction of a nanosecond, and the bound grows to cover both
	// that and its own, so [shift-eps, shift+eps] contains [lo, hi].
	for _, tc := range []struct {
		lo, hi     float64 // seconds
		shift, eps time.Duration
	}{
		{0, 2e-9, 1, 1},               // exact
		{0, 0, 0, 0},                  // exact
		{0, 1.5e-9, 0, 2},             // midpoint 0.75 ns drops to 0: ceil(0.75 + 0.75)
		{-1.5e-9, 0, 0, 2},            // the same below zero
		{0.25e-9, 0.5e-9, 0, 1},       // an interval inside one nanosecond is not a zero error
		{1, 1 + 1e-9, time.Second, 2}, // 0.5 + 0.5 ns, a hair over at float64's spacing near 1 s
	} {
		dc := mustClock(t)
		if _, err := adopt(dc, []interval.Interval{{Lo: tc.lo, Hi: tc.hi}}); err != nil {
			t.Fatal(err)
		}
		shift, eps := dc.value.Sub(dc.anchor), dc.epsilon
		if shift != tc.shift || eps != tc.eps {
			t.Errorf("adopt([%v, %v] s) = shift %d ns, eps %d ns, want %d, %d", tc.lo, tc.hi, shift, eps, tc.shift, tc.eps)
		}
		if float64(shift-eps) > tc.lo*1e9 || float64(shift+eps) < tc.hi*1e9 {
			t.Errorf("adopt([%v, %v] s) left [%d, %d] ns, which does not contain it", tc.lo, tc.hi, shift-eps, shift+eps)
		}
	}

	// The two clock sources are agedError's callers: any drift bound over
	// any elapsed time shows as at least a nanosecond of error.
	sys, err := NewSystemClock(0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dc := mustClock(t)
	dc.driftPPM = 1e-3
	time.Sleep(time.Millisecond)
	if _, e, _ := sys.Now(); e < time.Nanosecond {
		t.Errorf("SystemClock error after 1 ms at 1e-3 ppm = %v, want >= 1 ns", e)
	}
	if _, e, _ := dc.Now(); e < time.Nanosecond {
		t.Errorf("DisciplinedClock error after 1 ms at 1e-3 ppm = %v, want >= 1 ns", e)
	}
}
