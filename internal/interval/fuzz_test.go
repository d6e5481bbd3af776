package interval

import (
	"testing"
)

// FuzzMarzulloSpan drives MarzulloSpan with byte-derived interval sets
// and checks it against the O(n^2) naive reference from the differential
// tests. Endpoints are decoded onto a coarse quarter-unit grid so shared
// endpoints — the tie-breaking cases where a sweep can go wrong — occur
// constantly, and inverted intervals are decoded too so the skip path
// stays covered.
func FuzzMarzulloSpan(f *testing.F) {
	// Seeds: empty, a singleton, nested pairs, a chain with shared
	// endpoints, and an inverted interval mixed with valid ones.
	f.Add(uint8(1), []byte{})
	f.Add(uint8(1), []byte{10, 20})
	f.Add(uint8(2), []byte{10, 30, 15, 25, 20, 40})
	f.Add(uint8(3), []byte{0, 10, 10, 20, 10, 10, 5, 15})
	f.Add(uint8(2), []byte{30, 10, 0, 20, 5, 25})
	f.Add(uint8(5), []byte{1, 2, 2, 3, 3, 4, 4, 5, 0, 9})

	f.Fuzz(func(t *testing.T, mRaw uint8, data []byte) {
		ivs := decodeIntervals(data)
		if len(ivs) > 64 {
			ivs = ivs[:64]
		}
		m := int(mRaw%16) + 1
		got, gotOK := MarzulloSpan(ivs, m)
		want, wantOK := naiveSpan(ivs, m)
		if gotOK != wantOK {
			t.Fatalf("MarzulloSpan(%v, %d): ok=%v, naive ok=%v", ivs, m, gotOK, wantOK)
		}
		if !gotOK {
			return
		}
		if !SameEdge(got.Lo, want.Lo) || !SameEdge(got.Hi, want.Hi) {
			t.Fatalf("MarzulloSpan(%v, %d) = %v, naive = %v", ivs, m, got, want)
		}
		// Cross-checks against independent facts: the result is a real
		// interval, both its edges are covered by at least m sources, and
		// no endpoint outside it is (coverage changes only at endpoints, so
		// no point outside it is either).
		if !got.Valid() {
			t.Fatalf("MarzulloSpan(%v, %d) returned inverted %v", ivs, m, got)
		}
		for _, p := range []float64{got.Lo, got.Hi} {
			if coverage(ivs, p) < m {
				t.Fatalf("MarzulloSpan(%v, %d) = %v: edge %v covered only %d times",
					ivs, m, got, p, coverage(ivs, p))
			}
		}
		for _, iv := range ivs {
			for _, p := range []float64{iv.Lo, iv.Hi} {
				if !got.Contains(p) && coverage(ivs, p) >= m {
					t.Fatalf("MarzulloSpan(%v, %d) = %v: %v outside it is covered %d times",
						ivs, m, got, p, coverage(ivs, p))
				}
			}
		}
	})
}

// FuzzSelect holds Select to the naive oracle of checkSelect on the same
// grid-decoded interval sets as FuzzMarzulloSpan: shared endpoints,
// point intervals and inverted inputs throughout.
func FuzzSelect(f *testing.F) {
	// Seeds: empty, one inverted input, a majority touching at one point
	// beside a falseticker, a 2+2 tie (no strict majority), an inverted
	// input that costs two agreeing ones their majority, and nested
	// intervals with a point interval at the shared edge.
	f.Add([]byte{})
	f.Add([]byte{30, 10})
	f.Add([]byte{0, 20, 20, 40, 200, 210})
	f.Add([]byte{0, 10, 5, 15, 100, 110, 105, 115})
	f.Add([]byte{0, 10, 5, 15, 30, 10, 40, 20})
	f.Add([]byte{0, 40, 10, 30, 20, 20, 20, 25, 50, 60})

	f.Fuzz(func(t *testing.T, data []byte) {
		ivs := decodeIntervals(data)
		if len(ivs) > 64 {
			ivs = ivs[:64]
		}
		checkSelect(t, ivs)
	})
}

// checkSelect compares Select(ivs) with what brute force says it must
// return. The coverage of a point only changes at an input's endpoint, so
// trying every endpoint as a candidate finds the largest coverage and the
// leftmost point p that has it. From those two facts alone: the verdict is
// whether that coverage is a strict majority of all inputs, inverted ones
// included; the survivors are the inputs that contain p; and the selected
// region starts at p, keeps that coverage throughout, lies inside every
// survivor, and is exactly the survivors' intersection, which is why
// Select has no tightening step.
func checkSelect(t *testing.T, ivs []Interval) {
	t.Helper()
	p, most := 0.0, 0
	for _, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		for _, q := range []float64{iv.Lo, iv.Hi} {
			if c := coverage(ivs, q); c > most || (c == most && q < p) {
				p, most = q, c
			}
		}
	}
	sel, ok := Select(ivs)
	if want := 2*most > len(ivs); ok != want {
		t.Fatalf("Select(%v): ok=%v, but the best coverage is %d of %d", ivs, ok, most, len(ivs))
	}
	if !ok {
		if sel.Survivors != nil || sel.Falsetickers != nil || sel.Interval != (Interval{}) {
			t.Fatalf("Select(%v) found no majority and still returned %+v", ivs, sel)
		}
		return
	}
	var survivors, falsetickers []int
	var members []Interval
	for i, iv := range ivs {
		if iv.Valid() && iv.Contains(p) {
			survivors = append(survivors, i)
			members = append(members, iv)
		} else {
			falsetickers = append(falsetickers, i)
		}
	}
	if !equalInts(sel.Survivors, survivors) || !equalInts(sel.Falsetickers, falsetickers) {
		t.Fatalf("Select(%v): survivors %v falsetickers %v, want %v and %v (the inputs that contain %v, and the rest)",
			ivs, sel.Survivors, sel.Falsetickers, survivors, falsetickers, p)
	}
	if !sel.Interval.Valid() || !SameEdge(sel.Interval.Lo, p) {
		t.Fatalf("Select(%v) = %v, want a region starting at %v", ivs, sel.Interval, p)
	}
	for _, q := range []float64{sel.Interval.Lo, sel.Interval.Midpoint(), sel.Interval.Hi} {
		if c := coverage(ivs, q); c != most {
			t.Fatalf("Select(%v) = %v: point %v is covered %d times, not %d", ivs, sel.Interval, q, c, most)
		}
	}
	for _, i := range sel.Survivors {
		if !ivs[i].ContainsInterval(sel.Interval) {
			t.Fatalf("Select(%v) = %v, which survivor %d = %v does not contain", ivs, sel.Interval, i, ivs[i])
		}
	}
	if common, ok := IntersectAll(members); !ok || common != sel.Interval {
		t.Fatalf("Select(%v) = %v, but its survivors intersect in %v (ok=%v)", ivs, sel.Interval, common, ok)
	}
}

// decodeIntervals maps fuzz bytes onto intervals with quarter-unit grid
// endpoints in [-16, 47.75]: two bytes per interval, no validity
// filtering (inverted intervals are part of the contract under test).
func decodeIntervals(data []byte) []Interval {
	var ivs []Interval
	for i := 0; i+1 < len(data); i += 2 {
		lo := float64(int(data[i])-64) / 4
		hi := float64(int(data[i+1])-64) / 4
		ivs = append(ivs, Interval{Lo: lo, Hi: hi})
	}
	return ivs
}
