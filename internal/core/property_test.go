package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"disttime/internal/interval"
)

// This file checks algebraic invariants of the synchronization functions
// over randomized inputs — the properties the paper's proofs rely on,
// independent of any particular scenario.

// honestScenario builds a correct server and honest zero-age replies
// around a known true time.
func honestScenario(t *testing.T, rng *rand.Rand) (s *Server, truth float64, replies []Reply) {
	t.Helper()
	truth = 500 + rng.Float64()*1000
	ownErr := 0.01 + rng.Float64()*2
	s = newServer(t, 0, truth, truth+(rng.Float64()*2-1)*ownErr, rng.Float64()*1e-4, ownErr)
	n := 1 + rng.IntN(6)
	for j := 0; j < n; j++ {
		e := 0.01 + rng.Float64()*2
		rtt := rng.Float64() * 0.1
		// The remote read its clock up to rtt ago; its reading was correct
		// then: C in [truth-rtt-e, truth+e] guarantees the transit-adjusted
		// interval contains truth.
		readAt := truth - rng.Float64()*rtt
		c := readAt + (rng.Float64()*2-1)*e
		replies = append(replies, Reply{From: j + 1, C: c, E: e, RTT: rtt})
	}
	return s, truth, replies
}

// TestPropertyAllFunctionsPreserveCorrectness: every synchronization
// function keeps an honest server correct on honest inputs (Theorems 1
// and 5, extended to the baselines that carry interval bookkeeping).
func TestPropertyAllFunctionsPreserveCorrectness(t *testing.T) {
	fns := []SyncFunc{
		MM{}, IM{}, IM{DropInconsistent: true}, IM{ExcludeSelf: true},
		LamportMax{}, Median{}, Mean{}, SelectIM{},
	}
	rng := rand.New(rand.NewPCG(21, 22))
	for _, fn := range fns {
		for trial := 0; trial < 300; trial++ {
			s, truth, replies := honestScenario(t, rng)
			fn.Sync(s, truth, replies)
			if !s.Interval(truth).Contains(truth) {
				t.Fatalf("%s trial %d: correctness lost: interval %v, truth %v",
					fn.Name(), trial, s.Interval(truth), truth)
			}
		}
	}
}

// TestPropertyEpsilonNeverNegative: no pass may leave a negative
// inherited error.
func TestPropertyEpsilonNeverNegative(t *testing.T) {
	fns := []SyncFunc{MM{}, IM{}, LamportMax{}, Median{}, Mean{}, SelectIM{}}
	rng := rand.New(rand.NewPCG(23, 24))
	for _, fn := range fns {
		for trial := 0; trial < 200; trial++ {
			s, truth, replies := honestScenario(t, rng)
			fn.Sync(s, truth, replies)
			if s.Epsilon() < 0 {
				t.Fatalf("%s trial %d: negative epsilon %v", fn.Name(), trial, s.Epsilon())
			}
		}
	}
}

// TestPropertyIMResultSubsetOfInputs: the interval IM derives is a subset
// of the server's own prior interval and of every reply's transit-adjusted
// interval (the definition of intersection, and the heart of Theorem 6),
// up to the outward rounding of its adopt (adoptSlack) on each edge.
func TestPropertyIMResultSubsetOfInputs(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for trial := 0; trial < 500; trial++ {
		s, truth, replies := honestScenario(t, rng)
		own := s.Interval(truth)
		var inputs []interval.Interval
		inputs = append(inputs, own)
		for _, r := range replies {
			inputs = append(inputs, s.replyInterval(truth, r))
		}
		res := IM{}.Sync(s, truth, replies)
		if !res.Reset {
			continue
		}
		got := s.Interval(truth)
		margin := adoptSlack(s.Read(truth))
		for k, in := range inputs {
			if got.Lo < in.Lo-margin || got.Hi > in.Hi+margin {
				t.Fatalf("trial %d: IM result %v not inside input %d %v", trial, got, k, in)
			}
		}
	}
}

// TestPropertyMMNeverIncreasesError: an MM pass can only keep or shrink
// the server's error at the sync instant (the accepted reply's adjusted
// error is at most the current error, by rule MM-2's predicate).
func TestPropertyMMNeverIncreasesError(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for trial := 0; trial < 500; trial++ {
		s, truth, replies := honestScenario(t, rng)
		before := s.ErrorAt(truth)
		MM{}.Sync(s, truth, replies)
		after := s.ErrorAt(truth)
		if after > before {
			t.Fatalf("trial %d: MM increased error %v -> %v", trial, before, after)
		}
	}
}

// TestPropertyIMNeverWidensOwnInterval: with the self interval included,
// an IM pass can only keep or shrink the server's error, up to its
// adopt's outward rounding (adoptSlack).
func TestPropertyIMNeverWidensOwnInterval(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 30))
	for trial := 0; trial < 500; trial++ {
		s, truth, replies := honestScenario(t, rng)
		before := s.ErrorAt(truth)
		IM{}.Sync(s, truth, replies)
		if after := s.ErrorAt(truth); after > before+adoptSlack(s.Read(truth)) {
			t.Fatalf("trial %d: IM widened error %v -> %v", trial, before, after)
		}
	}
}

// TestPropertyResultBookkeeping: Reset implies progress was recorded, and
// inconsistent indices are valid and sorted.
func TestPropertyResultBookkeeping(t *testing.T) {
	fns := []SyncFunc{MM{}, IM{}, IM{DropInconsistent: true}, LamportMax{}, Median{}, Mean{}, SelectIM{}}
	rng := rand.New(rand.NewPCG(31, 32))
	for _, fn := range fns {
		for trial := 0; trial < 200; trial++ {
			s, truth, replies := honestScenario(t, rng)
			// Sometimes poison one reply to exercise the inconsistent path.
			if rng.IntN(3) == 0 && len(replies) > 0 {
				replies[rng.IntN(len(replies))].C += 1e6
			}
			res := fn.Sync(s, truth, replies)
			if res.Reset && res.Accepted == 0 {
				t.Fatalf("%s trial %d: reset without accepted replies", fn.Name(), trial)
			}
			prev := -1
			for _, idx := range res.Inconsistent {
				if idx < 0 || idx >= len(replies) {
					t.Fatalf("%s trial %d: inconsistent index %d out of range", fn.Name(), trial, idx)
				}
				if idx <= prev {
					t.Fatalf("%s trial %d: inconsistent indices not increasing: %v",
						fn.Name(), trial, res.Inconsistent)
				}
				prev = idx
			}
		}
	}
}

// TestPropertyAgeTranslationConsistency: translating a reply by Age and
// syncing is equivalent (to first order in delta) to syncing the fresh
// reply at its arrival and letting the clock drift: both leave the server
// correct.
func TestPropertyAgeTranslationConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 400; trial++ {
		truth := 1000.0
		e := 0.05 + rng.Float64()
		rtt := rng.Float64() * 0.05
		age := rng.Float64() * 5
		readAt := truth - rng.Float64()*rtt - age
		c := readAt + (rng.Float64()*2-1)*e

		s := newServer(t, 0, truth, truth+0.1, 1e-4, 3.0)
		reply := Reply{From: 1, C: c, E: e, RTT: rtt, Age: age}
		res := IM{}.Sync(s, truth, []Reply{reply})
		if !res.Reset {
			continue
		}
		if !s.Interval(truth).Contains(truth) {
			t.Fatalf("trial %d: aged reply broke correctness (age %v)", trial, age)
		}
	}
}

// TestPropertyMMIMAgreeOnSingleDominantReply: with one reply strictly
// better than the server's own state and fully contained in it, MM adopts
// it and IM derives an interval inside it; both end up near the reply.
func TestPropertyMMIMAgreeOnSingleDominantReply(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 300; trial++ {
		truth := 100.0
		mm := newServer(t, 0, truth, truth+0.5, 0, 5)
		im := newServer(t, 0, truth, truth+0.5, 0, 5)
		reply := Reply{From: 1, C: truth + (rng.Float64()*2-1)*0.1, E: 0.2, RTT: 0}
		if !(MM{}).Sync(mm, truth, []Reply{reply}).Reset {
			t.Fatal("MM rejected dominant reply")
		}
		if !(IM{}).Sync(im, truth, []Reply{reply}).Reset {
			t.Fatal("IM rejected dominant reply")
		}
		if d := math.Abs(mm.Read(truth) - im.Read(truth)); d > 0.2+1e-9 {
			t.Fatalf("trial %d: MM and IM diverge by %v on a dominant reply", trial, d)
		}
	}
}
