package core

import (
	"math/rand/v2"
	"testing"
)

// This file checks the two theorem bounds the chaos monitor also
// asserts at runtime, but here directly against the rules over
// table-driven families of randomized reply sets: rule MM-2 never
// increases the maximum error, and an IM reset lands within every input
// interval's pairwise bound.

// replyFamily is one shape of randomized reply set.
type replyFamily struct {
	name string
	gen  func(rng *rand.Rand, truth float64) []Reply
}

// honestReply draws one honest reply around truth with the given error
// and round-trip bounds: the remote read its clock up to rtt ago, and
// that reading was within e of the time then.
func honestReply(rng *rand.Rand, truth float64, from int, maxE, maxRTT, maxAge float64) Reply {
	e := 0.001 + rng.Float64()*maxE
	rtt := rng.Float64() * maxRTT
	age := rng.Float64() * maxAge
	readAt := truth - age - rng.Float64()*rtt
	return Reply{From: from, C: readAt + (rng.Float64()*2-1)*e, E: e, RTT: rtt, Age: age}
}

// replyFamilies are the table-driven shapes: tighter and looser than the
// server, fresh and stale, singletons and crowds, plus a liar mix.
func replyFamilies() []replyFamily {
	many := func(maxE, maxRTT, maxAge float64, lo, hi int) func(*rand.Rand, float64) []Reply {
		return func(rng *rand.Rand, truth float64) []Reply {
			n := lo + rng.IntN(hi-lo+1)
			out := make([]Reply, 0, n)
			for j := 0; j < n; j++ {
				out = append(out, honestReply(rng, truth, j+1, maxE, maxRTT, maxAge))
			}
			return out
		}
	}
	return []replyFamily{
		{"tight-fresh", many(0.02, 0.01, 0, 1, 5)},
		{"loose-fresh", many(3, 0.2, 0, 1, 5)},
		{"tight-stale", many(0.02, 0.01, 2, 2, 6)},
		{"single", many(1, 0.1, 0.5, 1, 1)},
		{"crowd", many(1, 0.1, 1, 8, 16)},
		{"liars", func(rng *rand.Rand, truth float64) []Reply {
			out := many(0.5, 0.05, 0.5, 2, 5)(rng, truth)
			for j := range out {
				if rng.IntN(3) == 0 { // a falseticker's answer: confident and wrong
					out[j].C += (rng.Float64()*2 - 1) * 50
					out[j].E = 0.001 + rng.Float64()*0.01
				}
			}
			return out
		}},
	}
}

// ownServer draws the local server for a trial.
func ownServer(t *testing.T, rng *rand.Rand, truth float64) *Server {
	t.Helper()
	ownErr := 0.01 + rng.Float64()*2
	return newServer(t, 0, truth, truth+(rng.Float64()*2-1)*ownErr,
		rng.Float64()*1e-4, ownErr)
}

// TestPropertyMMErrorNonIncrease: rule MM-2 adopts a reply only when the
// transit-charged error beats the server's own, so a pass never leaves
// the maximum error larger than it found it — for every reply family,
// honest or lying (Theorem 2's premise).
func TestPropertyMMErrorNonIncrease(t *testing.T) {
	for _, fam := range replyFamilies() {
		rng := rand.New(rand.NewPCG(31, 32))
		for trial := 0; trial < 400; trial++ {
			truth := 500 + rng.Float64()*1000
			s := ownServer(t, rng, truth)
			before := s.ErrorAt(truth)
			res := MM{}.Sync(s, truth, fam.gen(rng, truth))
			after := s.ErrorAt(truth)
			if after > before {
				t.Fatalf("%s trial %d: MM grew error %.9g -> %.9g", fam.name, trial, before, after)
			}
			if res.Reset && !(after < before) {
				t.Fatalf("%s trial %d: MM reset without strict improvement %.9g -> %.9g",
					fam.name, trial, before, after)
			}
		}
	}
}

// TestPropertyIMMidpointWithinPairwiseBounds: when an IM pass resets, the
// adopted clock value is the intersection midpoint, so it must lie within
// the server's own prior interval and within every used reply's
// transit-adjusted interval — |mid - c_j| <= e_j pairwise, which is what
// makes the result consistent with each input (Theorem 6).
func TestPropertyIMMidpointWithinPairwiseBounds(t *testing.T) {
	for _, fam := range replyFamilies() {
		rng := rand.New(rand.NewPCG(33, 34))
		resets := 0
		for trial := 0; trial < 400; trial++ {
			truth := 500 + rng.Float64()*1000
			s := ownServer(t, rng, truth)
			own := s.Interval(truth)
			replies := fam.gen(rng, truth)
			bounds := make([]struct{ lo, hi float64 }, len(replies))
			for j, r := range replies {
				iv := s.replyInterval(truth, r)
				bounds[j].lo, bounds[j].hi = iv.Lo, iv.Hi
			}
			res := IM{}.Sync(s, truth, replies)
			if !res.Reset {
				continue
			}
			resets++
			mid := s.Read(truth)
			if mid < own.Lo || mid > own.Hi {
				t.Fatalf("%s trial %d: midpoint %.9g outside own prior interval %v",
					fam.name, trial, mid, own)
			}
			for j := range replies {
				if mid < bounds[j].lo || mid > bounds[j].hi {
					t.Fatalf("%s trial %d: midpoint %.9g outside reply %d's interval [%.9g, %.9g]",
						fam.name, trial, mid, j, bounds[j].lo, bounds[j].hi)
				}
			}
			// The adopted interval is the intersection, so it is no wider
			// than any input, up to its adopt's outward rounding.
			adopted := s.Interval(truth)
			if adopted.Hi-adopted.Lo > own.Hi-own.Lo+2*adoptSlack(mid) {
				t.Fatalf("%s trial %d: adopted interval wider than own prior", fam.name, trial)
			}
		}
		if resets == 0 {
			t.Fatalf("%s: no trial reset; the property was never exercised", fam.name)
		}
	}
}
