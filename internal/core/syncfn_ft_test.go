package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestSelectIMSurvivesFalseticker(t *testing.T) {
	// Plain IM refuses to act when one reply is wildly inconsistent;
	// SelectIM finds the majority region and resets.
	mkServer := func() *Server { return newServer(t, 1, 0, 100, 0, 3) }
	replies := []Reply{
		{From: 2, C: 101, E: 2},
		{From: 3, C: 99, E: 2},
		{From: 4, C: 500, E: 0.1}, // falseticker
	}

	plain := mkServer()
	if res := (IM{}).Sync(plain, 0, replies); res.Reset {
		t.Fatal("plain IM unexpectedly reset through a falseticker")
	}

	sel := mkServer()
	res := SelectIM{}.Sync(sel, 0, replies)
	if !res.Reset {
		t.Fatal("SelectIM did not reset")
	}
	if len(res.Inconsistent) != 1 || res.Inconsistent[0] != 2 {
		t.Errorf("Inconsistent = %v, want [2]", res.Inconsistent)
	}
	// Result is the intersection of self [97,103] with the survivors
	// [99,103] and [97,101]: [99,101].
	if got := sel.Read(0); math.Abs(got-100) > 1e-12 {
		t.Errorf("clock = %v, want 100", got)
	}
	if got := sel.Epsilon(); math.Abs(got-1) > 1e-12 {
		t.Errorf("epsilon = %v, want 1", got)
	}
}

func TestSelectIMNoMajority(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1)
	res := SelectIM{}.Sync(s, 0, []Reply{
		{From: 2, C: 300, E: 1},
		{From: 3, C: 500, E: 1},
		{From: 4, C: 700, E: 1},
	})
	if res.Reset {
		t.Error("reset without a majority")
	}
	if len(res.Inconsistent) != 3 {
		t.Errorf("Inconsistent = %v", res.Inconsistent)
	}
}

func TestSelectIMEmptyReplies(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 1)
	// With self only, a single interval is its own majority of one.
	res := SelectIM{}.Sync(s, 0, nil)
	if !res.Reset {
		t.Error("self-only majority should reset (no-op value)")
	}
	if got := s.Read(0); got != 100 {
		t.Errorf("clock = %v", got)
	}
}

// TestSelectIMCorrectWithHonestMajority: with any minority of
// falsetickers, SelectIM keeps the server correct.
func TestSelectIMCorrectWithHonestMajority(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 400; trial++ {
		truth := 1000.0
		ownErr := 0.5 + rng.Float64()
		s := newServer(t, 0, truth, truth+(rng.Float64()*2-1)*ownErr, 0, ownErr)
		var replies []Reply
		honest := 4 + rng.IntN(4)
		faulty := rng.IntN((honest + 1) / 2) // strict minority incl. self
		for j := 0; j < honest; j++ {
			e := 0.3 + rng.Float64()
			replies = append(replies, Reply{From: j + 1, C: truth + (rng.Float64()*2-1)*e, E: e})
		}
		for j := 0; j < faulty; j++ {
			replies = append(replies, Reply{From: 100 + j, C: truth + 50 + rng.Float64()*100, E: 0.2})
		}
		res := SelectIM{}.Sync(s, truth, replies)
		if !res.Reset {
			t.Fatalf("trial %d: no reset with honest majority", trial)
		}
		if !s.Interval(truth).Contains(truth) {
			t.Fatalf("trial %d: correctness lost: %v", trial, s.Interval(truth))
		}
	}
}

func TestIMFloorError(t *testing.T) {
	s := newServer(t, 1, 0, 100, 0, 5)
	res := IM{FloorError: 0.7}.Sync(s, 0, []Reply{
		{From: 2, C: 100.1, E: 0.1, RTT: 0},
	})
	if !res.Reset {
		t.Fatal("no reset")
	}
	if got := s.Epsilon(); got != 0.7 {
		t.Errorf("epsilon = %v, want floored 0.7", got)
	}
	// A wider derived interval is untouched by the floor.
	s2 := newServer(t, 1, 0, 100, 0, 5)
	IM{FloorError: 0.7}.Sync(s2, 0, []Reply{{From: 2, C: 100, E: 3, RTT: 0}})
	if got, want := s2.Epsilon(), 3+roundoff*100; got != want {
		t.Errorf("epsilon = %v, want unfloored %v (3 rounded outward at C = 100)", got, want)
	}
}

// TestIMFloorErrorMitigatesFigure3: the Figure 3 configuration poisons
// plain IM; a floor at the poisoning magnitude keeps the derived interval
// covering the correct time.
func TestIMFloorErrorMitigatesFigure3(t *testing.T) {
	const truth = 100.0
	replies := []Reply{
		{From: 1, C: 96, E: 6},
		{From: 2, C: 95, E: 4},   // incorrect: [91, 99]
		{From: 3, C: 99.5, E: 2}, // correct, smallest E
	}
	poisoned := newServer(t, 0, 0, 97, 0, 8)
	IM{}.Sync(poisoned, 0, replies)
	if poisoned.Interval(0).Contains(truth) {
		t.Fatal("expected plain IM to be poisoned (Figure 3)")
	}
	floored := newServer(t, 0, 0, 97, 0, 8)
	IM{FloorError: 2}.Sync(floored, 0, replies)
	if !floored.Interval(0).Contains(truth) {
		t.Errorf("floored IM interval %v still excludes the correct time", floored.Interval(0))
	}
}

// TestPropertySelectAdoptEdge puts true time exactly on an edge of the
// interval SelectIM and ByzIM adopt: every honest input, the server's own
// included, has its lower edge (in half the trials its upper edge) on
// true time to the last unit, so the selected region and the agreement
// envelope share that edge; in a third of the trials a falseticker sits
// far off. Readings reach 1e6 s. Every adopt must contain true time,
// exactly: interval.Interval's Midpoint and HalfWidth, unrounded, miss
// by 1.8e-15 s at trial 77,913 (ByzIM, C ≈ 16 s).
func TestPropertySelectAdoptEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 50))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for trial := 0; trial < 100000; trial++ {
		truth := logUniform(1, 1e6)
		edge := math.Copysign(1, rng.Float64()-0.5) // +1: the lower edge on truth
		onEdge := func(e float64) float64 {
			c := truth + edge*e
			for c-e > truth || c+e < truth {
				c = math.Nextafter(c, truth)
			}
			return c
		}
		var replies []Reply
		for j := range 3 + rng.IntN(5) {
			e := logUniform(1e-9, 1)
			replies = append(replies, Reply{From: j + 1, C: onEdge(e), E: e})
		}
		if rng.IntN(3) == 0 {
			replies = append(replies, Reply{From: 99, C: truth + edge*10, E: 1e-3})
		}
		ownErr := logUniform(1e-9, 1)
		for _, fn := range []SyncFunc{SelectIM{}, ByzIM{}} {
			s := newServer(t, 0, truth, onEdge(ownErr), 0, ownErr)
			if res := fn.Sync(s, truth, replies); !res.Reset {
				t.Fatalf("%s trial %d: no reset", fn.Name(), trial)
			}
			if iv := s.Interval(truth); !iv.Contains(truth) {
				t.Fatalf("%s trial %d: adopted %v excludes true time %v (by %v)",
					fn.Name(), trial, iv, truth, math.Max(iv.Lo-truth, truth-iv.Hi))
			}
		}
	}
}
