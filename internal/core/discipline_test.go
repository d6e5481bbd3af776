package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"disttime/internal/clock"
)

// honestReplies is k replies read at true time t with zero transit, each
// interval containing t. With edge set every reply's interval has the
// same edge at t, so the intersection does too; replies with opposite
// edges at t would pin it to a point, where IM-2's own rounding shows.
func honestReplies(rng *rand.Rand, t float64, k int, e float64, edge bool) []Reply {
	replies := make([]Reply, k)
	side := math.Copysign(1, rng.Float64()-0.5)
	for j := range replies {
		ej := e * (0.5 + rng.Float64())
		u := 2*rng.Float64() - 1
		if edge {
			u = side
		}
		c := t + u*ej
		for math.Abs(c-t) > ej {
			c = math.Nextafter(c, t)
		}
		replies[j] = Reply{From: j + 1, C: c, E: ej}
	}
	return replies
}

// disciplineNode is an IM node on a drifting clock under rule, with
// Section 3 recovery on.
func disciplineNode(t *testing.T, drift, delta float64, rule RateRule) *Node {
	t.Helper()
	s, err := NewServer(0, Config{Clock: clock.NewDrifting(0, 0, drift), Delta: delta, InitialError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return &Node{Server: s, Fn: IM{}, Recovery: true, Discipline: rule}
}

// TestNodeDiscipline holds what the node does with its anchor: it
// anchors at the first reset and steers from the second, a recovery's
// adopt drops the anchor and the steer, a clock that cannot be steered
// keeps no anchor, and a δ raise keeps it and widens the clip.
func TestNodeDiscipline(t *testing.T) {
	const delta, drift, tau = 1e-4, 6e-5, 60.0
	rng := rand.New(rand.NewPCG(47, 1))
	round := func(n *Node, k int) Pass {
		at := float64(k) * tau
		return n.Sync(at, honestReplies(rng, at, 3, 1e-3, false))
	}

	n := disciplineNode(t, drift, delta, Slew{})
	if p := round(n, 1); p.Rate.Steered || p.Rate.Age != delta || !n.anchor.Anchored() {
		t.Fatalf("first reset: %+v, anchor %+v; want unsteered at delta, anchored", p.Rate, n.anchor)
	}
	var p Pass
	for k := 2; k <= 20; k++ {
		if p = round(n, k); !p.Rate.Steered || p.Fallback {
			t.Fatalf("reset %d: %+v, want steered", k, p.Rate)
		}
	}
	if p.Rate.Age > delta/10 || math.Abs(p.Rate.Centre-drift) > delta/10 {
		t.Errorf("after 20 resets: %+v; want the centre near %v and the age under delta/10", p.Rate, drift)
	}
	round(n, 21)
	if iv := n.Server.Interval(21 * tau); !iv.Contains(21 * tau) {
		t.Errorf("steered interval %v misses %v", iv, 21*tau)
	}

	// A δ raise keeps the anchor: the error ages at the new bound until
	// the next reset, which steers at once, clipped to the new bound.
	at := 21.5 * tau
	if err := n.Server.RaiseDelta(at, 2*delta); err != nil || n.Server.Rate().Age != 2*delta {
		t.Fatalf("raise: %v, rate %+v; want aging at %v", err, n.Server.Rate(), 2*delta)
	}
	if p := round(n, 22); !p.Rate.Steered {
		t.Errorf("reset after a raise: %+v, want steered from the kept anchor", p.Rate)
	}

	// A recovery's adopt drops the anchor and the steer: the next reset
	// only anchors.
	at = 23 * tau
	n.Server.Clock().Set(at, at+3600) // a fault the bookkeeping misses
	if p := round(n, 23); !p.Recovered || p.Rate.Steered || p.Rate.Age != 2*delta || n.anchor.Anchored() {
		t.Fatalf("recovery: recovered %v, %+v, anchor %+v; want unsteered at delta, no anchor", p.Recovered, p.Rate, n.anchor)
	}
	if p := round(n, 24); p.Rate.Steered || p.Fallback || !n.anchor.Anchored() {
		t.Errorf("first reset after the recovery: %+v; want an anchor only", p.Rate)
	}

	// A slewing clock cannot be steered: no anchor, aging at delta.
	s, err := NewServer(0, Config{Clock: clock.NewSlewing(clock.NewDrifting(0, 0, drift), 0.0005), Delta: delta, InitialError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	n = &Node{Server: s, Fn: IM{}, Recovery: true, Discipline: Slew{}}
	for k := 1; k <= 5; k++ {
		if p := round(n, k); p.Rate.Steered || p.Rate.Age != delta || n.anchor.Anchored() {
			t.Fatalf("slewing clock, reset %d: %+v, anchor %+v", k, p.Rate, n.anchor)
		}
	}
}

// keepAnchor is Slew with a recovery that keeps the anchor.
type keepAnchor struct{ Slew }

func (keepAnchor) Recover(an Anchor) Anchor { return an }

// pointAge is Slew aging a steered clock at its point estimate (w = 0).
type pointAge struct{ Slew }

func (p pointAge) Step(an Anchor, t, c, e, ticks, delta float64) (Rate, Anchor, bool) {
	r, next, fallback := p.Slew.Step(an, t, c, e, ticks, delta)
	if r.Steered {
		r.Age = 0
	}
	return r, next, fallback
}

// contained reports whether s's interval at true time t contains t, up
// to four units in the last place of t: IM-2's offsets and midpoint and
// the clock's reading each round by half of one (at one unit, five of
// the 400 Slew trials below miss; at two, none).
func contained(s *Server, t float64) bool {
	r := s.Reading(t)
	return math.Abs(r.C-t) <= r.E+4*(math.Nextafter(t, math.Inf(1))-t)
}

// disciplineMisses runs trials of an IM node under rule and counts the
// trials in which an interval of the node's missed true time while it
// was sound. Each drift is within delta/(1+delta) (ROADMAP item 23's
// premise for aging at delta before the anchor), each round's replies
// contain true time, and now and then the node's clock register jumps
// by about its own error, a fault its bookkeeping does not see: from the
// jump until its next recovery's adopt the node is faulted and is not
// checked. Checked: every pass's interval at the pass, and the interval
// just before each pass, aged since the last.
func disciplineMisses(t *testing.T, rule RateRule, trials int) (misses int) {
	rng := rand.New(rand.NewPCG(47, 47))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for range trials {
		delta := logUniform(1e-6, 1e-3)
		drift := (2*rng.Float64() - 1) * delta / (1 + delta)
		tau := logUniform(10, 300)
		e := logUniform(1e-5, 1e-2)
		n := disciplineNode(t, drift, delta, rule)
		faulted, missed := false, false
		at := 0.0
		for k := 0; k < 60 && !missed; k++ {
			at += tau * (0.5 + rng.Float64())
			if !faulted && !contained(n.Server, at) {
				missed = true
				break
			}
			if rng.IntN(4) == 0 {
				clk := n.Server.Clock()
				clk.Set(at, clk.Read(at)+math.Copysign(n.Server.ErrorAt(at)*(0.5+2*rng.Float64()), rng.Float64()-0.5))
				faulted = true
			}
			p := n.Sync(at, honestReplies(rng, at, 1+rng.IntN(4), e, rng.IntN(2) == 0))
			if p.Recovered {
				faulted = false
			}
			if !faulted && !contained(n.Server, at) {
				missed = true
			}
		}
		if missed {
			misses++
		}
	}
	return misses
}

// TestPropertyDiscipline holds the node's rate discipline to the
// induction of DESIGN.md §3: with every drift within its bound and every
// reply containing true time, a node's interval contains true time at
// and between its passes, steered or not, and a recovery's adopt heals a
// node whose register a fault moved. Aging a steered clock at its point
// estimate fails it, and so does keeping the anchor across a recovery,
// which carries a reading taken while faulted into the next drift bound.
func TestPropertyDiscipline(t *testing.T) {
	const trials = 400
	if m := disciplineMisses(t, Slew{}, trials); m != 0 {
		t.Errorf("Slew: %d of %d trials lost true time", m, trials)
	}
	for _, plant := range []struct {
		name string
		rule RateRule
	}{{"point age", pointAge{}}, {"kept anchor", keepAnchor{}}} {
		if m := disciplineMisses(t, plant.rule, trials); m == 0 {
			t.Errorf("planted %s: no trial of %d lost true time; the property is asleep", plant.name, trials)
		}
	}
}

// adoptFn adopts a given reading: the fuzz target's synchronization
// function, so that the node's discipline sees exactly the readings the
// fuzzer chose.
type adoptFn struct{ c, e float64 }

func (adoptFn) Name() string { return "adopt" }

func (f *adoptFn) Sync(s *Server, t float64, _ []Reply) Result {
	s.SetClock(t, f.c, f.e)
	return Result{Reset: true, Accepted: 1}
}

// FuzzDiscipline holds every steered interval to true time: a node on a
// drifting clock within its bound adopts, at random instants, readings
// that each contain true time (many on its edge), and runs Slew after
// each; just before the next adopt the steered interval must still
// contain true time. The check allows the clock reading's own rounding,
// four units in the last place of the true time.
func FuzzDiscipline(f *testing.F) {
	f.Add(uint64(1), 0.9, -4.0, 60.0, -3.0)
	f.Add(uint64(2), -1.0, -6.0, 10.0, -5.0)
	f.Add(uint64(3), 0.0, -2.0, 1000.0, -1.0)
	f.Add(uint64(4), 1.0, -1.0, 30.0, -6.0)
	f.Fuzz(func(t *testing.T, seed uint64, frac, logDelta, tau, logE float64) {
		for _, x := range []float64{frac, logDelta, tau, logE} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		delta := math.Pow(10, -1-math.Mod(math.Abs(logDelta), 6))     // 1e-7 .. 1e-1
		drift := math.Max(-1, math.Min(1, frac)) * delta              // within delta
		tau = 1 + math.Mod(math.Abs(tau), 3600)                       // 1 s .. 1 h
		e := math.Pow(10, -1-math.Mod(math.Abs(logE), 6)) * (1 + tau) // up to a tenth of tau
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		s, err := NewServer(0, Config{Clock: clock.NewDrifting(0, 0, drift), Delta: delta, InitialError: e})
		if err != nil {
			t.Fatal(err)
		}
		adopt := &adoptFn{}
		n := &Node{Server: s, Fn: adopt, Discipline: Slew{}}
		at := 0.0
		for k := 0; k < 40 && at < 1e6; k++ {
			at += tau * (0.25 + rng.Float64())
			if p := n.Server.Reading(at); n.Server.Rate().Steered {
				tol := 4 * (math.Nextafter(at, math.Inf(1)) - at)
				if !(math.Abs(p.C-at) <= p.E+tol) {
					t.Fatalf("adopt %d at %v: steered %+v interval <%v, %v> misses true time by %v (drift %v, delta %v)",
						k, at, n.Server.Rate(), p.C, p.E, math.Abs(p.C-at)-p.E, drift, delta)
				}
			}
			ek := e * (0.1 + rng.Float64())
			u := 2*rng.Float64() - 1
			if rng.IntN(2) == 0 {
				u = math.Copysign(1, u)
			}
			c := at + u*ek
			for math.Abs(c-at) > ek {
				c = math.Nextafter(c, at)
			}
			adopt.c, adopt.e = c, ek
			n.Sync(at, nil)
		}
	})
}
