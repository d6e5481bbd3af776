package core

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// incrementalIM runs rule IM-2 the way scale.Engine runs it, one rule
// call at a time instead of one batch at the sync instant: the own
// interval opens the intersection when the round starts, each reply is
// charged, checked and folded in as it arrives (Age before the sync
// instant t), the intersection is widened by the local clock's progress
// between contributions, and the round closes on the midpoint. It returns
// the <C, eps> the close installs, and false when the round ends with
// nothing to adopt.
func incrementalIM(s *Server, t float64, replies []Reply) (c, eps float64, ok bool) {
	arrivals := append([]Reply(nil), replies...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Age > arrivals[j].Age })
	return incrementalRound(s, t, arrivals)
}

// incrementalRound is incrementalIM past the sort: the rule calls
// themselves, over replies already in arrival order (oldest first).
func incrementalRound(s *Server, t float64, arrivals []Reply) (c, eps float64, ok bool) {
	ci := s.Read(t)
	errAt := func(c float64) float64 { return AgedError(s.epsilon, c-s.resetRef, s.delta) }

	last := ci // clock reading when the round opened: before the first reply left
	for _, r := range arrivals {
		last = math.Min(last, ci-r.Age-r.RTT)
	}
	a, b := -errAt(last), errAt(last)
	used := 0
	for _, r := range arrivals {
		ck := ci - r.Age
		trail, lead := Charge(r.E, r.RTT, 0, s.delta, 0, math.Inf(1), 0)
		lo, hi := Offset(r.C, trail, lead, ck)
		if !Consistent(lo, hi, errAt(ck)) {
			continue
		}
		a, b = Widen(a, b, ck-last, s.delta)
		a, b = Fold(a, b, lo, hi)
		last = ck
		used++
	}
	a, b = Widen(a, b, ci-last, s.delta)
	if used == 0 || b < a {
		return 0, 0, false
	}
	shift, eps := Midpoint(a, b, ci)
	return ci + shift, eps, true
}

// adoptSlack is how far an IM adopt at clock value c may pass an input:
// the outward margin Midpoint adds, roundoff*|c|, and one unit in the
// last place of c, for the rounding of the inputs' own offsets from c.
// It bounds each adopted edge's excess over its input's edge, and the
// adopted half-width's over the narrowest input's (Theorem 6).
func adoptSlack(c float64) float64 {
	c = math.Abs(c)
	return roundoff*c + (math.Nextafter(c, math.Inf(1)) - c)
}

// TestPropertyIncrementalIMMatchesBatch puts the engine's use of the rules
// under the oracle the batch form already answers to. For every reply
// family, with random arrival ages, the incremental sequence and
// IM{DropInconsistent: true}.Sync must leave the same <C, eps>; and the
// incremental result must itself satisfy Theorem 5 (it contains the true
// time when every input is honest) and Theorem 6 (it is no wider than the
// narrowest input).
func TestPropertyIncrementalIMMatchesBatch(t *testing.T) {
	for _, fam := range replyFamilies() {
		rng := rand.New(rand.NewPCG(37, 38))
		resets := 0
		for trial := 0; trial < 400; trial++ {
			truth := 500 + rng.Float64()*1000
			// The server was last reset before the round opened, so its
			// error deteriorates over the whole round.
			born := truth - 4
			ownErr := 0.01 + rng.Float64()*2
			s := newServer(t, 0, born, born+(rng.Float64()*2-1)*ownErr, rng.Float64()*1e-4, ownErr)
			replies := fam.gen(rng, truth)

			narrowest := s.ErrorAt(truth)
			c, eps, ok := incrementalIM(s, truth, replies)
			res := IM{DropInconsistent: true}.Sync(s, truth, replies)
			dropped := make(map[int]bool)
			for _, i := range res.Inconsistent {
				dropped[i] = true
			}
			for i, r := range replies {
				if _, trail, lead := s.effective(r, s.Read(truth)); !dropped[i] {
					narrowest = math.Min(narrowest, (trail+lead)/2)
				}
			}

			if ok != res.Reset {
				t.Fatalf("%s trial %d: incremental adopts=%v, batch reset=%v", fam.name, trial, ok, res.Reset)
			}
			if !ok {
				continue
			}
			resets++
			tol := adoptSlack(c)
			if math.Abs(c-s.Read(truth)) > tol || math.Abs(eps-s.Epsilon()) > tol {
				t.Fatalf("%s trial %d: incremental <%.12g, %.12g>, batch <%.12g, %.12g>",
					fam.name, trial, c, eps, s.Read(truth), s.Epsilon())
			}
			if fam.name != "liars" && (truth < c-eps || truth > c+eps) {
				t.Fatalf("%s trial %d: incremental <%.12g, %.12g> excludes true time %.12g",
					fam.name, trial, c, eps, truth)
			}
			if eps > narrowest+tol {
				t.Fatalf("%s trial %d: incremental eps %.12g wider than the narrowest input %.12g",
					fam.name, trial, eps, narrowest)
			}
		}
		if resets == 0 {
			t.Fatalf("%s: no trial reset; the property was never exercised", fam.name)
		}
	}
}

// TestRulePassAllocs holds rules.go at zero allocations: one rule MM-2
// pass and one rule IM-2 pass over eight consistent replies, on a server
// built once and resynchronized every run, and one incremental round
// (incrementalRound above, the shape scale.Engine runs, and the only
// caller of Widen) over the same replies arriving a millisecond apart.
func TestRulePassAllocs(t *testing.T) {
	replies := make([]Reply, 8)
	for i := range replies {
		replies[i] = Reply{From: i + 1, C: 1000.001, E: 0.5, RTT: 0.01, Age: float64(8-i) * 1e-3}
	}
	for _, fn := range []SyncFunc{MM{}, IM{}} {
		s := newServer(t, 0, 1000, 1000, 1e-5, 1)
		if allocs := testing.AllocsPerRun(1000, func() {
			if res := fn.Sync(s, 1000, replies); !res.Reset || len(res.Inconsistent) != 0 {
				t.Fatalf("%s: pass over consistent replies ended %+v", fn.Name(), res)
			}
		}); allocs != 0 {
			t.Errorf("%s: a pass over eight replies allocates %v times, want 0", fn.Name(), allocs)
		}
	}
	s := newServer(t, 0, 1000, 1000, 1e-5, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := incrementalRound(s, 1000, replies); !ok {
			t.Fatal("incremental round over consistent replies adopted nothing")
		}
	}); allocs != 0 {
		t.Errorf("an incremental round over eight replies allocates %v times, want 0", allocs)
	}
}

// TestPropertyDriftInterval holds the rate discipline to its soundness
// premise: whenever two readings contain their true times, the drift
// interval contains the oscillator's drift, and Steer's age covers the
// steered clock's residual per local second. The true times sit at the
// readings' interval edges, where the interval is tight: t1 at c1+e1 and
// t2 at c2-e2 make the span shortest and pin hi, the opposite edges pin
// lo, so a margin short of e1+e2 by more than rounding puts d outside.
// Times and errors are multiples of 2^-20 below 2^32, so every c = t ∓ e
// is exact and only DriftInterval's own arithmetic and the ticks' one
// product round.
func TestPropertyDriftInterval(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 45))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	dyadic := func(x float64) float64 { return math.Round(x*0x1p20) / 0x1p20 }
	tight := 0
	for trial := 0; trial < 20000; trial++ {
		d := logUniform(1e-12, 0.4)
		if rng.IntN(2) == 0 {
			d = -d
		}
		t1 := dyadic(rng.Float64() * 1e5)
		t2 := t1 + dyadic(logUniform(1e-2, 1e5))
		e1 := dyadic(logUniform(1e-6, 2*(t2-t1)))
		e2 := dyadic(logUniform(1e-6, 2*(t2-t1)))
		ticks := (1 + d) * (t2 - t1)
		for _, edge := range []float64{1, -1} {
			// edge 1: the true times at c1+e1 and c2-e2, the shortest span.
			c1, c2 := t1-edge*e1, t2+edge*e2
			lo, hi := DriftInterval(c1, e1, c2, e2, ticks)
			if !(lo <= d && d <= hi) {
				t.Fatalf("trial %d: readings <%v, %v> and <%v, %v>, %v ticks: drift interval [%v, %v] excludes d = %v",
					trial, c1, e1, c2, e2, ticks, lo, hi, d)
			}
			if edge == 1 && !math.IsInf(hi, 1) && hi-d < 1e-9*(1+d) {
				tight++
			}
			// Steer over the interval clipped to a claimed bound that
			// admits d, at its edges and inside, as scale.Engine steers.
			delta := math.Abs(d) * (1 + rng.Float64())
			lo, hi = max(lo, -delta), min(hi, delta)
			centre, age := Steer(lo, hi)
			for _, drift := range []float64{lo, hi, d} {
				rate := (1+drift)/(1+centre) - 1
				if residual := math.Abs(1/(1+rate) - 1); !(residual <= age) {
					t.Fatalf("trial %d: drift %v in [%v, %v] steered by centre %v leaves %v per local second, age %v",
						trial, drift, lo, hi, centre, residual, age)
				}
			}
		}
	}
	if tight < 1000 {
		t.Fatalf("only %d trials pinned hi within 1e-9 of d: the edges were not exercised", tight)
	}
}

// TestPropertyChargeFloor holds Charge's minimum-delay credit, with no
// Max (M = +Inf; TestPropertyChargeBand holds the Max), to its soundness
// premise at its edges, in float64 as scale.Engine computes it. A request leaves at t0 and each leg is added to the clock as the
// event kernel adds a delay (At = now + delay, rounded); one leg takes
// exactly m and the other the rest of the round trip. The responder
// reads at c = t1 ∓ e, its interval's edge, so with the short leg on the
// reply's side the true time sits on the trailing edge of the charged
// interval, and with it on the request's side on the leading edge. The
// requester's clock drifts at d and claims the least bound that covers
// it, so neither edge has slack beyond rounding; readings reach 1e6 s.
func TestPropertyChargeFloor(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 47))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	tight := 0
	for trial := 0; trial < 20000; trial++ {
		t0 := logUniform(1, 1e6)
		m := logUniform(1e-7, 0.05)
		extra := 0.0
		if rng.IntN(4) > 0 {
			extra = logUniform(1e-9, 0.1)
		}
		e := logUniform(1e-9, 1)
		d := (2*rng.Float64() - 1) * logUniform(1e-12, 1e-3)
		delta := max(0, -d/(1+d))
		off := (2*rng.Float64() - 1) * logUniform(1e-9, 1)
		read := func(t float64) float64 { return off + (1+d)*t }
		for _, legs := range [][2]float64{{m, m + extra}, {m + extra, m}} {
			t1 := t0 + legs[0]
			t2 := t1 + legs[1]
			reqC, ci := read(t0), read(t2)
			rtt := max(0, ci-reqC)
			for _, edge := range []float64{1, -1} {
				c := t1 + edge*e
				for math.Abs(c-t1) > e {
					c = math.Nextafter(c, t1)
				}
				trail, lead := Charge(e, rtt, 0, delta, m, math.Inf(1), ci)
				lo, hi := Offset(c, trail, lead, ci)
				if truth := t2 - ci; !(lo <= truth && truth <= hi) {
					t.Fatalf("trial %d: t0 %v, legs %v, responder <%v, %v>, rtt %v, delta %v: offset [%v, %v] excludes %v (by %v, %v)",
						trial, t0, legs, c, e, rtt, delta, lo, hi, truth, lo-truth, truth-hi)
				} else if min(truth-lo, hi-truth) < 1e-9 {
					tight++
				}
			}
		}
	}
	if tight < 10000 {
		t.Fatalf("only %d offsets came within 1e-9 of an edge: the edges were not exercised", tight)
	}
}

// TestPropertyLeg holds Leg to its soundness premise at its edges, in
// float64 as scale.Engine computes it. A sender reads c at true time t0
// with error e, and its message arrives after a leg of m or of M, added
// as the event kernel adds a delay (At = now + delay, rounded); the
// receiver reads cj at arrival on a clock drifting at d. With c = t0 + e
// and the short leg the true time sits on the interval's lower edge, and
// with c = t0 - e and the long leg on its upper edge, so neither edge has
// slack beyond rounding. A quarter of the bands have m = 0 and a quarter
// m = M; readings reach 1e6 s.
func TestPropertyLeg(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 49))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	tight := 0
	for trial := 0; trial < 20000; trial++ {
		t0 := logUniform(1, 1e6)
		m := 0.0
		if rng.IntN(4) > 0 {
			m = logUniform(1e-7, 0.05)
		}
		M := m
		if rng.IntN(4) > 0 {
			M += logUniform(1e-9, 0.1)
		}
		e := logUniform(1e-9, 1)
		d := (2*rng.Float64() - 1) * logUniform(1e-12, 1e-3)
		off := (2*rng.Float64() - 1) * logUniform(1e-9, 1)
		for _, leg := range []float64{m, M} {
			t1 := t0 + leg
			cj := off + (1+d)*t1
			for _, edge := range []float64{1, -1} {
				c := t0 + edge*e
				for math.Abs(c-t0) > e {
					c = math.Nextafter(c, t0)
				}
				lo, hi := Leg(c, e, m, M, cj)
				if truth := t1 - cj; !(lo <= truth && truth <= hi) {
					t.Fatalf("trial %d: sender <%v, %v> at %v, leg %v of [%v, %v], receiver %v: offset [%v, %v] excludes %v (by %v, %v)",
						trial, c, e, t0, leg, m, M, cj, lo, hi, truth, lo-truth, truth-hi)
				} else if min(truth-lo, hi-truth) < 1e-9 {
					tight++
				}
			}
		}
	}
	if tight < 10000 {
		t.Fatalf("only %d offsets came within 1e-9 of an edge: the edges were not exercised", tight)
	}
}

// chargeBand runs one exchange over a delay band [m, M] in float64 as
// scale.Engine computes it and returns Charge's offset interval with the
// true offset at the reply's arrival. A request leaves at true time t0
// on the requester's clock off + (1+d)*t; it takes leg d1 to the
// responder, which reads c = t1 + u*e (|u| <= 1, nudged onto its
// interval), and the reply takes leg d2 back, each leg added to the
// clock as the event kernel adds a delay (At = now + delay, rounded).
// The requester claims the least bound that covers its drift,
// delta = |d|/(1+d), so that (1-delta)*rtt is the true round trip when
// d > 0 and (1+delta)*rtt is when d < 0.
func chargeBand(t0, d1, d2, m, M, e, u, d, off float64) (lo, hi, truth float64) {
	read := func(t float64) float64 { return off + (1+d)*t }
	t1 := t0 + d1
	t2 := t1 + d2
	reqC, ci := read(t0), read(t2)
	rtt := max(0, ci-reqC)
	c := t1 + u*e
	for math.Abs(c-t1) > e {
		c = math.Nextafter(c, t1)
	}
	trail, lead := Charge(e, rtt, 0, math.Abs(d)/(1+d), m, M, ci)
	lo, hi = Offset(c, trail, lead, ci)
	return lo, hi, t2 - ci
}

// TestPropertyChargeBand holds Charge's use of the band's Max to its
// soundness premise at the two edges it sets. With the reply's leg at M
// and the responder's reading on its interval's lower edge, the true time
// sits on the leading edge, where the cap M binds over the round trip
// less m (the request's leg lies anywhere in the band). With the
// request's leg at M and the reading on its upper edge, the true time
// sits on the trailing edge, where the credit (1-delta)*rtt - M binds
// over m; a fast requester clock (d > 0) makes that credit the true
// reply leg, so only rounding is left. A quarter of the bands have m = 0
// and a quarter m = M; readings reach 1e6 s.
func TestPropertyChargeBand(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 51))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	var tight [2]int // leading, trailing
	for trial := 0; trial < 20000; trial++ {
		t0 := logUniform(1, 1e6)
		m := 0.0
		if rng.IntN(4) > 0 {
			m = logUniform(1e-7, 0.05)
		}
		M := m
		if rng.IntN(4) > 0 {
			M += logUniform(1e-9, 0.1)
		}
		e := logUniform(1e-9, 1)
		d := (2*rng.Float64() - 1) * logUniform(1e-12, 1e-3)
		off := (2*rng.Float64() - 1) * logUniform(1e-9, 1)
		inBand := m + rng.Float64()*(M-m)
		for edge, x := range [][3]float64{{inBand, M, -1}, {M, inBand, 1}} {
			lo, hi, truth := chargeBand(t0, x[0], x[1], m, M, e, x[2], d, off)
			if !(lo <= truth && truth <= hi) {
				t.Fatalf("trial %d: t0 %v, legs %v, %v of [%v, %v], responder error %v, drift %v: offset [%v, %v] excludes %v (by %v, %v)",
					trial, t0, x[0], x[1], m, M, e, d, lo, hi, truth, lo-truth, truth-hi)
			}
			if gap := [2]float64{hi - truth, truth - lo}[edge]; gap < 1e-9 {
				tight[edge]++
			}
		}
	}
	if tight[0] < 10000 || tight[1] < 5000 {
		t.Fatalf("only %d leading and %d trailing offsets came within 1e-9 of their edge: the edges were not exercised",
			tight[0], tight[1])
	}
}

// FuzzChargeBand holds Charge over a band to containment for any legs in
// the band, any responder reading within its error and any requester
// drift within its bound: the fuzzer's values are folded into t0 in
// [1, 1e6] s, m up to 50 ms, M - m up to 100 ms, e up to 1 s, |d| up to
// 1e-3 and |off| below 1 s, the ranges of TestPropertyChargeBand.
func FuzzChargeBand(f *testing.F) {
	f.Add(1000.0, 0.001, 0.004, 0.01, 0.5, 1.0, -1.0, 1e-4, 0.3)
	f.Add(999999.0, 0.0, 0.1, 0.5, 1.0, 0.0, 1.0, 9e-4, -0.9)
	f.Add(1.0, 0.05, 0.0, 1e-9, 0.25, 0.75, 0.0, -1e-3, 0.0)
	f.Fuzz(func(t *testing.T, t0, m, w, e, f1, f2, u, d, off float64) {
		for _, x := range []float64{t0, m, w, e, f1, f2, u, d, off} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		t0 = 1 + math.Mod(math.Abs(t0), 1e6-1)
		m = math.Mod(math.Abs(m), 0.05)
		M := m + math.Mod(math.Abs(w), 0.1)
		e = math.Mod(math.Abs(e), 1)
		d1 := m + math.Mod(math.Abs(f1), 1)*(M-m)
		d2 := m + math.Mod(math.Abs(f2), 1)*(M-m)
		u, d, off = math.Mod(u, 1), math.Mod(d, 1e-3), math.Mod(off, 1)
		if lo, hi, truth := chargeBand(t0, d1, d2, m, M, e, u, d, off); !(lo <= truth && truth <= hi) {
			t.Fatalf("t0 %v, legs %v, %v of [%v, %v], responder <t1%+v, %v>, drift %v, off %v: offset [%v, %v] excludes %v (by %v, %v)",
				t0, d1, d2, m, M, u*e, e, d, off, lo, hi, truth, lo-truth, truth-hi)
		}
	})
}

// TestPropertyNarrow holds Narrow to the rule it folds by hand: Fold the
// reading into the own [-e, e], adopt the Midpoint when an edge moved,
// bit for bit (scale's im golden pins its operations), over readings
// inside, across and around the own interval.
func TestPropertyNarrow(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	for trial := 0; trial < 20000; trial++ {
		e := rng.Float64()
		lo := (2*rng.Float64() - 1) * 2 * e
		hi := lo + rng.Float64()*3*e
		c := rng.Float64() * 1e6
		a, b := Fold(-e, e, lo, hi)
		wantOK := a > -e || b < e
		var wantShift, wantEps float64
		if wantOK {
			wantShift, wantEps = Midpoint(a, b, c)
		}
		shift, eps, ok := Narrow(lo, hi, e, c)
		if ok != wantOK || math.Float64bits(shift) != math.Float64bits(wantShift) || math.Float64bits(eps) != math.Float64bits(wantEps) {
			t.Fatalf("Narrow(%v, %v, %v, %v) = %v, %v, %v; want %v, %v, %v", lo, hi, e, c, shift, eps, ok, wantShift, wantEps, wantOK)
		}
	}
}

// TestBand holds the one delay band's three methods: Check accepts a
// finite band with 0 <= Min <= Max, the zero band and a fixed one
// included; Known is false only for a zero Max; and Draw spans [Min, Max]
// and is Min at u = 0 and for a fixed band.
func TestBand(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		b     Band
		ok    bool
		known bool
	}{
		{"zero", Band{}, true, false},
		{"fixed", Band{Min: 0.02, Max: 0.02}, true, true},
		{"uniform", Band{Min: 0.01, Max: 0.05}, true, true},
		{"NaN min", Band{Min: nan, Max: 0.05}, false, true},
		{"negative min", Band{Min: -0.01, Max: 0.05}, false, true},
		{"NaN max", Band{Max: nan}, false, false},
		{"max below min", Band{Min: 0.05, Max: 0.01}, false, true},
		{"infinite max", Band{Max: inf}, false, true},
	} {
		if err := tc.b.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want ok %v", tc.name, err, tc.ok)
		}
		if got := tc.b.Known(); got != tc.known {
			t.Errorf("%s: Known() = %v, want %v", tc.name, got, tc.known)
		}
		if !tc.ok {
			continue
		}
		if got := tc.b.Draw(0); got != tc.b.Min {
			t.Errorf("%s: Draw(0) = %v, want Min %v", tc.name, got, tc.b.Min)
		}
		for _, u := range []float64{0.25, 0.5, 1 - 0x1p-53} {
			if got := tc.b.Draw(u); got < tc.b.Min || got > tc.b.Max {
				t.Errorf("%s: Draw(%v) = %v outside [%v, %v]", tc.name, u, got, tc.b.Min, tc.b.Max)
			}
		}
	}
}
