package interval

// Differential tests: the Sweeper-based sweep algorithms against naive
// O(n^2) references that recompute coverage from scratch at every
// candidate point. Random interval sets are drawn on a coarse grid so
// shared endpoints (the tie-breaking cases: open-meets-close at a point,
// several intervals opening at once) occur constantly, and inverted
// intervals are mixed in to exercise the skip path.

import (
	"math/rand/v2"
	"testing"
)

// coverage counts the intervals containing p (closed endpoints).
func coverage(ivs []Interval, p float64) int {
	n := 0
	for _, iv := range ivs {
		if iv.Valid() && iv.Lo <= p && p <= iv.Hi {
			n++
		}
	}
	return n
}

// naiveBest recomputes Marzullo's result by brute force: the maximum
// coverage over all lower edges, the leftmost lower edge attaining it, and
// the nearest edge bounding the region on the right.
func naiveBest(ivs []Interval) Best {
	var best Best
	for _, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		if c := coverage(ivs, iv.Lo); c > best.Count {
			best.Count = c
		}
	}
	if best.Count == 0 {
		return Best{}
	}
	lo := 0.0
	found := false
	for _, iv := range ivs {
		if !iv.Valid() || coverage(ivs, iv.Lo) != best.Count {
			continue
		}
		if !found || iv.Lo < lo {
			lo = iv.Lo
			found = true
		}
	}
	// The sweep pairs the opening edge with the next edge in sorted order:
	// the nearest close at or after lo, or the nearest open strictly
	// after lo, whichever comes first.
	hi := lo
	first := true
	for _, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		if iv.Hi >= lo && (first || iv.Hi < hi) {
			hi = iv.Hi
			first = false
		}
		if iv.Lo > lo && (first || iv.Lo < hi) {
			hi = iv.Lo
			first = false
		}
	}
	return Best{Interval: Interval{Lo: lo, Hi: hi}, Count: best.Count}
}

// naiveSpan recomputes MarzulloSpan by brute force. Coverage changes only
// at an endpoint, so the first point covered at least m times is a lower
// edge and the last one an upper edge: the span runs from the leftmost
// lower edge with coverage m or more to the rightmost such upper edge.
func naiveSpan(ivs []Interval, m int) (Interval, bool) {
	if m <= 0 {
		return Interval{}, false
	}
	var span Interval
	found := false
	for _, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		if coverage(ivs, iv.Lo) >= m && (!found || iv.Lo < span.Lo) {
			span.Lo = iv.Lo
			found = true
		}
	}
	if !found {
		return Interval{}, false
	}
	span.Hi = span.Lo
	for _, iv := range ivs {
		if iv.Valid() && iv.Hi > span.Hi && coverage(ivs, iv.Hi) >= m {
			span.Hi = iv.Hi
		}
	}
	return span, true
}

// naiveGroups enumerates maximal cliques by brute force: the active set at
// every endpoint, filtered to those not strictly contained in another.
func naiveGroups(ivs []Interval) [][]int {
	var points []float64
	for _, iv := range ivs {
		if iv.Valid() {
			points = append(points, iv.Lo, iv.Hi)
		}
	}
	var sets [][]int
	for _, p := range points {
		var set []int
		for i, iv := range ivs {
			if iv.Valid() && iv.Lo <= p && p <= iv.Hi {
				set = append(set, i)
			}
		}
		if len(set) > 0 {
			sets = append(sets, set)
		}
	}
	subset := func(a, b []int) bool { // a ⊆ b; both sorted
		j := 0
		for _, x := range a {
			for j < len(b) && b[j] < x {
				j++
			}
			if j >= len(b) || b[j] != x {
				return false
			}
		}
		return true
	}
	var maximal [][]int
	for i, s := range sets {
		keep := true
		for j, t := range sets {
			if i == j {
				continue
			}
			if len(s) < len(t) && subset(s, t) {
				keep = false
				break
			}
			if len(s) == len(t) && j < i && subset(s, t) {
				keep = false // duplicate: keep the first occurrence only
				break
			}
		}
		if keep {
			dup := false
			for _, m := range maximal {
				if len(m) == len(s) && subset(s, m) {
					dup = true
					break
				}
			}
			if !dup {
				maximal = append(maximal, s)
			}
		}
	}
	return maximal
}

// randomIntervals draws n intervals on a coarse grid (so ties are common);
// a fraction are inverted.
func randomIntervals(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := float64(rng.IntN(40)) / 4
		width := float64(rng.IntN(20)) / 4
		if rng.IntN(10) == 0 {
			ivs[i] = Interval{Lo: lo, Hi: lo - width - 0.25} // inverted
		} else {
			ivs[i] = Interval{Lo: lo, Hi: lo + width} // width 0 allowed
		}
	}
	return ivs
}

func TestMarzulloDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	sw := NewSweeper(8)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(12)
		ivs := randomIntervals(rng, n)
		want := naiveBest(ivs)
		for variant, got := range map[string]Best{
			"package": Marzullo(ivs),
			"sweeper": sw.Marzullo(ivs),
		} {
			if got != want {
				t.Fatalf("trial %d (%s): Marzullo(%v) = %+v, naive %+v",
					trial, variant, ivs, got, want)
			}
		}
		checkSelect(t, ivs)
	}
}

func TestMarzulloSpanDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 45))
	sw := NewSweeper(8)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(12)
		ivs := randomIntervals(rng, n)
		m := 1 + rng.IntN(n+1) // sometimes unattainable
		wantIv, wantOK := naiveSpan(ivs, m)
		gotIv, gotOK := MarzulloSpan(ivs, m)
		if gotOK != wantOK || (gotOK && gotIv != wantIv) {
			t.Fatalf("trial %d: MarzulloSpan(%v, %d) = %v,%v; naive %v,%v",
				trial, ivs, m, gotIv, gotOK, wantIv, wantOK)
		}
		swIv, swOK := sw.MarzulloSpan(ivs, m)
		if swOK != wantOK || (swOK && swIv != wantIv) {
			t.Fatalf("trial %d: Sweeper.MarzulloSpan(%v, %d) = %v,%v; naive %v,%v",
				trial, ivs, m, swIv, swOK, wantIv, wantOK)
		}
		// Consistency with Marzullo at the maximal count.
		if best := Marzullo(ivs); best.Count > 0 {
			iv, ok := MarzulloSpan(ivs, best.Count)
			if !ok || !iv.ContainsInterval(best.Interval) {
				t.Fatalf("trial %d: MarzulloSpan at max count %d = %v,%v; Marzullo %+v",
					trial, best.Count, iv, ok, best)
			}
		}
	}
}

func TestConsistencyGroupsDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 47))
	sw := NewSweeper(8)
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.IntN(10)
		ivs := randomIntervals(rng, n)
		want := naiveGroups(ivs)
		for variant, groups := range map[string][]Group{
			"package": ConsistencyGroups(ivs),
			"sweeper": sw.ConsistencyGroups(ivs),
		} {
			if len(groups) != len(want) {
				t.Fatalf("trial %d (%s): %d groups, naive %d\nivs=%v\ngot=%v\nwant=%v",
					trial, variant, len(groups), len(want), ivs, groups, want)
			}
			for _, g := range groups {
				// Each group must match one naive maximal clique...
				matched := false
				for _, m := range want {
					if equalInts(g.Members, m) {
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("trial %d (%s): group %v not among naive cliques %v (ivs=%v)",
						trial, variant, g.Members, want, ivs)
				}
				// ...and carry the exact common intersection of its members.
				member := make([]Interval, len(g.Members))
				for i, idx := range g.Members {
					member[i] = ivs[idx]
				}
				common, ok := IntersectAll(member)
				if !ok || common != g.Intersection {
					t.Fatalf("trial %d (%s): group %v intersection %v, want %v (ok=%v)",
						trial, variant, g.Members, g.Intersection, common, ok)
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzMarzulloDifferential drives the differential comparison from fuzzed
// bytes: each pair of bytes becomes one interval on a small grid.
func FuzzMarzulloDifferential(f *testing.F) {
	f.Add([]byte{0x10, 0x22, 0x30, 0x14})
	f.Add([]byte{0x00, 0x00, 0xff, 0x01})
	f.Add([]byte{0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 40 {
			data = data[:40]
		}
		var ivs []Interval
		for i := 0; i+1 < len(data); i += 2 {
			lo := float64(data[i]%32) / 2
			w := float64(int(data[i+1]%16) - 2) // negative w => inverted
			ivs = append(ivs, Interval{Lo: lo, Hi: lo + w/2})
		}
		if got, want := Marzullo(ivs), naiveBest(ivs); got != want {
			t.Fatalf("Marzullo(%v) = %+v, naive %+v", ivs, got, want)
		}
		m := 1 + int(data[0]%8)
		gotIv, gotOK := MarzulloSpan(ivs, m)
		wantIv, wantOK := naiveSpan(ivs, m)
		if gotOK != wantOK || (gotOK && gotIv != wantIv) {
			t.Fatalf("MarzulloSpan(%v, %d) = %v,%v; naive %v,%v",
				ivs, m, gotIv, gotOK, wantIv, wantOK)
		}
	})
}
