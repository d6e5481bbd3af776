package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromEstimate(t *testing.T) {
	tests := []struct {
		name   string
		c, e   float64
		wantLo float64
		wantHi float64
	}{
		{name: "centered", c: 10, e: 2, wantLo: 8, wantHi: 12},
		{name: "zero error", c: 5, e: 0, wantLo: 5, wantHi: 5},
		{name: "negative error clamped", c: 5, e: -1, wantLo: 5, wantHi: 5},
		{name: "negative center", c: -3, e: 1, wantLo: -4, wantHi: -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			iv := FromEstimate(tt.c, tt.e)
			if iv.Lo != tt.wantLo || iv.Hi != tt.wantHi {
				t.Errorf("FromEstimate(%v, %v) = %v, want [%v, %v]", tt.c, tt.e, iv, tt.wantLo, tt.wantHi)
			}
		})
	}
}

func TestMidpointHalfWidth(t *testing.T) {
	tests := []struct {
		name     string
		iv       Interval
		wantMid  float64
		wantHalf float64
	}{
		{name: "unit", iv: Interval{Lo: 0, Hi: 1}, wantMid: 0.5, wantHalf: 0.5},
		{name: "point", iv: Interval{Lo: 7, Hi: 7}, wantMid: 7, wantHalf: 0},
		{name: "wide", iv: Interval{Lo: -10, Hi: 30}, wantMid: 10, wantHalf: 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Midpoint(); got != tt.wantMid {
				t.Errorf("Midpoint() = %v, want %v", got, tt.wantMid)
			}
			if got := tt.iv.HalfWidth(); got != tt.wantHalf {
				t.Errorf("HalfWidth() = %v, want %v", got, tt.wantHalf)
			}
			if got := tt.iv.Width(); got != 2*tt.wantHalf {
				t.Errorf("Width() = %v, want %v", got, 2*tt.wantHalf)
			}
		})
	}
}

func TestMidpointLargeMagnitude(t *testing.T) {
	// Midpoint must not overflow for edges near ±MaxFloat64.
	iv := Interval{Lo: math.MaxFloat64 * 0.9, Hi: math.MaxFloat64}
	mid := iv.Midpoint()
	if math.IsInf(mid, 0) || mid < iv.Lo || mid > iv.Hi {
		t.Errorf("Midpoint() = %v not within %v", mid, iv)
	}
}

func TestContains(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	tests := []struct {
		t    float64
		want bool
	}{
		{0.999, false}, {1, true}, {2, true}, {3, true}, {3.001, false},
	}
	for _, tt := range tests {
		if got := iv.Contains(tt.t); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestContainsInterval(t *testing.T) {
	outer := Interval{Lo: 0, Hi: 10}
	tests := []struct {
		name  string
		inner Interval
		want  bool
	}{
		{name: "proper subset", inner: Interval{Lo: 2, Hi: 3}, want: true},
		{name: "equal", inner: outer, want: true},
		{name: "left overhang", inner: Interval{Lo: -1, Hi: 3}, want: false},
		{name: "right overhang", inner: Interval{Lo: 5, Hi: 11}, want: false},
		{name: "disjoint", inner: Interval{Lo: 20, Hi: 21}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := outer.ContainsInterval(tt.inner); got != tt.want {
				t.Errorf("ContainsInterval(%v) = %v, want %v", tt.inner, got, tt.want)
			}
		})
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Interval
		want   Interval
		wantOK bool
	}{
		{
			name: "overlap", a: Interval{Lo: 0, Hi: 2}, b: Interval{Lo: 1, Hi: 3},
			want: Interval{Lo: 1, Hi: 2}, wantOK: true,
		},
		{
			name: "nested", a: Interval{Lo: 0, Hi: 10}, b: Interval{Lo: 2, Hi: 3},
			want: Interval{Lo: 2, Hi: 3}, wantOK: true,
		},
		{
			name: "touching", a: Interval{Lo: 0, Hi: 1}, b: Interval{Lo: 1, Hi: 2},
			want: Interval{Lo: 1, Hi: 1}, wantOK: true,
		},
		{
			name: "disjoint", a: Interval{Lo: 0, Hi: 1}, b: Interval{Lo: 2, Hi: 3},
			wantOK: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.a.Intersect(tt.b)
			if ok != tt.wantOK {
				t.Fatalf("Intersect ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && got != tt.want {
				t.Errorf("Intersect = %v, want %v", got, tt.want)
			}
			// Commutativity.
			rev, revOK := tt.b.Intersect(tt.a)
			if revOK != ok || (ok && rev != got) {
				t.Errorf("Intersect not commutative: %v/%v vs %v/%v", got, ok, rev, revOK)
			}
		})
	}
}

func TestConsistent(t *testing.T) {
	// The paper's example: 3:01 +/- 0:02 vs 3:06 +/- 0:02 must be
	// inconsistent (in seconds: 181 +/- 2 vs 186 +/- 2).
	a := FromEstimate(181, 2)
	b := FromEstimate(186, 2)
	if Consistent(a, b) {
		t.Errorf("paper example: %v and %v should be inconsistent", a, b)
	}
	// 3:01 +/- 0:03 vs 3:06 +/- 0:02 are consistent (touching).
	c := FromEstimate(181, 3)
	if !Consistent(c, b) {
		t.Errorf("%v and %v should be consistent", c, b)
	}
}

// TestConsistentMatchesPaperPredicate checks that interval overlap equals
// the paper's algebraic predicate |Ci - Cj| <= Ei + Ej.
func TestConsistentMatchesPaperPredicate(t *testing.T) {
	f := func(ci, cj float64, ei, ej float64) bool {
		ci, cj = clampFinite(ci, 1e6), clampFinite(cj, 1e6)
		ei, ej = math.Abs(clampFinite(ei, 1e6)), math.Abs(clampFinite(ej, 1e6))
		got := Consistent(FromEstimate(ci, ei), FromEstimate(cj, ej))
		want := math.Abs(ci-cj) <= ei+ej
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectAll(t *testing.T) {
	tests := []struct {
		name   string
		ivs    []Interval
		want   Interval
		wantOK bool
	}{
		{name: "empty", wantOK: false},
		{
			name: "single", ivs: []Interval{{Lo: 1, Hi: 2}},
			want: Interval{Lo: 1, Hi: 2}, wantOK: true,
		},
		{
			name: "chain",
			ivs:  []Interval{{Lo: 0, Hi: 10}, {Lo: 2, Hi: 8}, {Lo: 4, Hi: 12}},
			want: Interval{Lo: 4, Hi: 8}, wantOK: true,
		},
		{
			name:   "inconsistent",
			ivs:    []Interval{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}},
			wantOK: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := IntersectAll(tt.ivs)
			if ok != tt.wantOK {
				t.Fatalf("IntersectAll ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && got != tt.want {
				t.Errorf("IntersectAll = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestTheorem6Minimality verifies Theorem 6: the intersection of the
// intervals of a consistent service is at least as small as the smallest
// interval.
func TestTheorem6Minimality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(6)
		correct := rng.Float64() * 100
		ivs := make([]Interval, n)
		smallest := math.Inf(1)
		for i := range ivs {
			e := rng.Float64()*5 + 1e-9
			c := correct + (rng.Float64()*2-1)*e // correct time within interval
			ivs[i] = FromEstimate(c, e)
			smallest = math.Min(smallest, ivs[i].Width())
		}
		common, ok := IntersectAll(ivs)
		if !ok {
			t.Fatalf("trial %d: correct service must be consistent", trial)
		}
		if common.Width() > smallest {
			t.Fatalf("trial %d: intersection width %v exceeds smallest interval %v",
				trial, common.Width(), smallest)
		}
		if !common.Contains(correct) {
			t.Fatalf("trial %d: intersection %v lost the correct time %v", trial, common, correct)
		}
	}
}

// bruteBestCount computes, by sampling candidate points at every edge, the
// maximum number of intervals sharing a common point.
func bruteBestCount(ivs []Interval) int {
	best := 0
	for _, iv := range ivs {
		for _, p := range []float64{iv.Lo, iv.Hi} {
			n := 0
			for _, other := range ivs {
				if other.Valid() && other.Contains(p) {
					n++
				}
			}
			if n > best {
				best = n
			}
		}
	}
	return best
}

func TestMarzullo(t *testing.T) {
	tests := []struct {
		name      string
		ivs       []Interval
		wantCount int
		want      Interval
	}{
		{name: "empty", wantCount: 0},
		{
			name:      "single",
			ivs:       []Interval{{Lo: 1, Hi: 3}},
			wantCount: 1, want: Interval{Lo: 1, Hi: 3},
		},
		{
			name: "classic NTP example",
			// 8-12, 11-13, 14-15: best is [11,12] with 2 sources.
			ivs:       []Interval{{Lo: 8, Hi: 12}, {Lo: 11, Hi: 13}, {Lo: 14, Hi: 15}},
			wantCount: 2, want: Interval{Lo: 11, Hi: 12},
		},
		{
			name:      "all intersect",
			ivs:       []Interval{{Lo: 0, Hi: 10}, {Lo: 5, Hi: 15}, {Lo: 8, Hi: 9}},
			wantCount: 3, want: Interval{Lo: 8, Hi: 9},
		},
		{
			name:      "one falseticker",
			ivs:       []Interval{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 3}, {Lo: 100, Hi: 101}},
			wantCount: 2, want: Interval{Lo: 1, Hi: 2},
		},
		{
			name:      "inverted ignored",
			ivs:       []Interval{{Lo: 5, Hi: 1}, {Lo: 0, Hi: 2}},
			wantCount: 1, want: Interval{Lo: 0, Hi: 2},
		},
		{
			name:      "touching counts as intersecting",
			ivs:       []Interval{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}},
			wantCount: 2, want: Interval{Lo: 1, Hi: 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Marzullo(tt.ivs)
			if got.Count != tt.wantCount {
				t.Fatalf("Marzullo count = %d, want %d", got.Count, tt.wantCount)
			}
			if tt.wantCount > 0 && got.Interval != tt.want {
				t.Errorf("Marzullo interval = %v, want %v", got.Interval, tt.want)
			}
		})
	}
}

// TestMarzulloAgainstBruteForce cross-checks the sweep against an O(n^2)
// point-sampling oracle on random inputs.
func TestMarzulloAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(12)
		ivs := make([]Interval, n)
		for i := range ivs {
			c := float64(rng.Intn(40))
			e := float64(rng.Intn(10)) / 2
			ivs[i] = FromEstimate(c, e)
		}
		got := Marzullo(ivs)
		want := bruteBestCount(ivs)
		if got.Count != want {
			t.Fatalf("trial %d: Marzullo count = %d, brute force = %d, input %v",
				trial, got.Count, want, ivs)
		}
		// The returned interval must actually be covered by Count sources.
		mid := got.Interval.Midpoint()
		n = 0
		for _, iv := range ivs {
			if iv.Contains(mid) {
				n++
			}
		}
		if n < got.Count {
			t.Fatalf("trial %d: midpoint %v covered by %d < %d sources", trial, mid, n, got.Count)
		}
	}
}

func TestConsistencyGroupsFigure4(t *testing.T) {
	// A six-server inconsistent service in the spirit of Figure 4: three
	// mutually-consistent subsets whose union is inconsistent.
	ivs := []Interval{
		{Lo: 0, Hi: 4},   // S1
		{Lo: 1, Hi: 5},   // S2: consistent with S1
		{Lo: 4.5, Hi: 8}, // S3: consistent with S2, not S1
		{Lo: 7, Hi: 11},  // S4: consistent with S3
		{Lo: 10, Hi: 14}, // S5: consistent with S4
		{Lo: 13, Hi: 17}, // S6: consistent with S5
	}
	if _, ok := IntersectAll(ivs); ok {
		t.Fatal("service should be inconsistent overall")
	}
	groups := ConsistencyGroups(ivs)
	if len(groups) < 3 {
		t.Fatalf("got %d groups, want >= 3: %+v", len(groups), groups)
	}
	for _, g := range groups {
		if len(g.Members) == 0 {
			t.Fatalf("empty group: %+v", g)
		}
		if !g.Intersection.Valid() {
			t.Fatalf("group intersection invalid: %+v", g)
		}
		// Every pair in the group must be mutually consistent.
		for i := 0; i < len(g.Members); i++ {
			for j := i + 1; j < len(g.Members); j++ {
				if !Consistent(ivs[g.Members[i]], ivs[g.Members[j]]) {
					t.Errorf("group %v members %d,%d not consistent", g.Members, i, j)
				}
			}
		}
	}
}

func TestConsistencyGroupsSingleGroup(t *testing.T) {
	ivs := []Interval{{Lo: 0, Hi: 10}, {Lo: 2, Hi: 12}, {Lo: 4, Hi: 14}}
	groups := ConsistencyGroups(ivs)
	if len(groups) != 1 {
		t.Fatalf("consistent service: got %d groups, want 1: %+v", len(groups), groups)
	}
	if len(groups[0].Members) != 3 {
		t.Errorf("group members = %v, want all three", groups[0].Members)
	}
	want := Interval{Lo: 4, Hi: 10}
	if groups[0].Intersection != want {
		t.Errorf("intersection = %v, want %v", groups[0].Intersection, want)
	}
}

func TestConsistencyGroupsEdgeCases(t *testing.T) {
	if groups := ConsistencyGroups(nil); groups != nil {
		t.Errorf("ConsistencyGroups(nil) = %v, want nil", groups)
	}
	if groups := ConsistencyGroups([]Interval{{Lo: 2, Hi: 1}}); groups != nil {
		t.Errorf("all-inverted input: got %v, want nil", groups)
	}
	groups := ConsistencyGroups([]Interval{{Lo: 1, Hi: 2}})
	if len(groups) != 1 || len(groups[0].Members) != 1 || groups[0].Members[0] != 0 {
		t.Errorf("single interval: got %+v", groups)
	}
}

// TestConsistencyGroupsProperties checks soundness (mutual consistency
// within a group), maximality (no interval outside a group is consistent
// with every member), and coverage (every valid interval appears in some
// group) on random inputs.
func TestConsistencyGroupsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = FromEstimate(float64(rng.Intn(20)), float64(rng.Intn(6))/2)
		}
		groups := ConsistencyGroups(ivs)

		seen := make(map[int]bool)
		for _, g := range groups {
			inGroup := make(map[int]bool, len(g.Members))
			for _, m := range g.Members {
				seen[m] = true
				inGroup[m] = true
			}
			// Soundness.
			for i := 0; i < len(g.Members); i++ {
				for j := i + 1; j < len(g.Members); j++ {
					if !Consistent(ivs[g.Members[i]], ivs[g.Members[j]]) {
						t.Fatalf("trial %d: unsound group %v", trial, g.Members)
					}
				}
			}
			// Maximality.
			for k := range ivs {
				if inGroup[k] {
					continue
				}
				all := true
				for _, m := range g.Members {
					if !Consistent(ivs[k], ivs[m]) {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("trial %d: group %v not maximal, %d consistent with all members",
						trial, g.Members, k)
				}
			}
		}
		// Coverage.
		for i := range ivs {
			if !seen[i] {
				t.Fatalf("trial %d: interval %d in no group", trial, i)
			}
		}
	}
}

// TestConsonant: Section 5 consonance is consistency of rate intervals.
// A separation rate is consonant with the claimed bounds di, dj when it
// is consistent with [-(di+dj), di+dj], edges included
// (core.RateEstimate.ConsonantWith is this with the estimate's own width).
func TestConsonant(t *testing.T) {
	tests := []struct {
		name         string
		rate, di, dj float64
		want         bool
	}{
		{name: "within", rate: 1e-5, di: 1e-5, dj: 1e-5, want: true},
		{name: "at bound", rate: 2e-5, di: 1e-5, dj: 1e-5, want: true},
		{name: "beyond", rate: 3e-5, di: 1e-5, dj: 1e-5, want: false},
		{name: "negative within", rate: -1.5e-5, di: 1e-5, dj: 1e-5, want: true},
		{name: "negative beyond", rate: -2.5e-5, di: 1e-5, dj: 1e-5, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bound := tt.di + tt.dj
			if got := Consistent(FromEstimate(tt.rate, 0), Interval{Lo: -bound, Hi: bound}); got != tt.want {
				t.Errorf("rate %v against bounds %v, %v: consonant = %v, want %v", tt.rate, tt.di, tt.dj, got, tt.want)
			}
		})
	}
}

func TestString(t *testing.T) {
	s := Interval{Lo: 1, Hi: 3}.String()
	if s == "" {
		t.Error("String() empty")
	}
}

// clampFinite maps arbitrary quick-generated floats into a sane finite
// range so the property holds without float-overflow artifacts.
func clampFinite(v, bound float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, bound)
}

// TestIntersectProperties: intersection is idempotent, commutative, and a
// subset of both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		a := Interval{Lo: math.Min(clampFinite(a0, 1e6), clampFinite(a1, 1e6)),
			Hi: math.Max(clampFinite(a0, 1e6), clampFinite(a1, 1e6))}
		b := Interval{Lo: math.Min(clampFinite(b0, 1e6), clampFinite(b1, 1e6)),
			Hi: math.Max(clampFinite(b0, 1e6), clampFinite(b1, 1e6))}

		self, ok := a.Intersect(a)
		if !ok || self != a {
			return false
		}
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		if okAB != okBA || (okAB && ab != ba) {
			return false
		}
		if okAB && (!a.ContainsInterval(ab) || !b.ContainsInterval(ab)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectPair(b *testing.B) {
	x := Interval{Lo: 0, Hi: 10}
	y := Interval{Lo: 5, Hi: 15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkMarzullo(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ivs := make([]Interval, 64)
	for i := range ivs {
		ivs[i] = FromEstimate(rng.Float64()*100, rng.Float64()*10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Marzullo(ivs)
	}
}

// TestSweeperAllocs holds the sweep at zero allocations: a warmed Sweeper
// runs the fault-tolerant intersection, its span variant and the plain
// intersection over 100 and over 1000 overlapping
// intervals without allocating. The Sweeper is retained, not drawn from the pool
// behind the package-level entry points: this package runs under the
// race detector, where sync.Pool sheds at random and a pooled call may
// build a new Sweeper (TestPooledSweepAllocs holds those, without -race).
func TestSweeperAllocs(t *testing.T) {
	for _, n := range []int{100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = FromEstimate(rng.Float64()*10, 0.5+rng.Float64())
		}
		sw := NewSweeper(0)
		want := sw.Marzullo(ivs) // grows the edge list to its steady size
		if pooled := Marzullo(ivs); pooled != want || want.Count < 2 {
			t.Fatalf("n=%d: retained sweeper found %+v, pooled entry point %+v", n, want, pooled)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if got := sw.Marzullo(ivs); got != want {
				t.Fatalf("n=%d: Marzullo = %+v, want %+v", n, got, want)
			}
			if _, ok := sw.MarzulloSpan(ivs, want.Count); !ok {
				t.Fatalf("n=%d: no span at the coverage Marzullo reported", n)
			}
			IntersectAll(ivs)
		}); allocs != 0 {
			t.Errorf("n=%d: warm sweeps allocate %v times, want 0", n, allocs)
		}
	}
}

func TestMarzulloSpan(t *testing.T) {
	ivs := []Interval{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 5}, {Lo: 2, Hi: 6}, {Lo: 90, Hi: 91}}
	tests := []struct {
		m      int
		want   Interval
		wantOK bool
	}{
		{m: 0, wantOK: false},
		{m: -1, wantOK: false},
		// The span reaches across the coverage gap between the cluster
		// and the outlier: it does not stop at the leftmost maximal
		// region.
		{m: 1, want: Interval{Lo: 0, Hi: 91}, wantOK: true},
		{m: 2, want: Interval{Lo: 1, Hi: 5}, wantOK: true},
		{m: 3, want: Interval{Lo: 2, Hi: 4}, wantOK: true},
		{m: 4, wantOK: false},
	}
	for _, tt := range tests {
		got, ok := MarzulloSpan(ivs, tt.m)
		if ok != tt.wantOK {
			t.Fatalf("MarzulloSpan(m=%d) ok = %v, want %v", tt.m, ok, tt.wantOK)
		}
		if ok && got != tt.want {
			t.Errorf("MarzulloSpan(m=%d) = %v, want %v", tt.m, got, tt.want)
		}
	}
	if _, ok := MarzulloSpan(nil, 1); ok {
		t.Error("MarzulloSpan(nil, 1) succeeded, want no coverage")
	}
}

// TestMarzulloSpanByzantineSoundness is the envelope property ByzIM
// adoption rests on: with at most f arbitrary liars among n sources and
// m = n - f, every point covered by all correct intervals — in
// particular the true time they were built around — lies inside the
// span, wherever the liars place their endpoints.
func TestMarzulloSpanByzantineSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(7)
		f := rng.Intn(n / 3)
		truth := float64(rng.Intn(100))
		ivs := make([]Interval, n)
		for i := range ivs {
			if i < f {
				// Liar: arbitrary interval, may or may not cover truth.
				lo := float64(rng.Intn(200)) - 50
				ivs[i] = Interval{Lo: lo, Hi: lo + float64(rng.Intn(20))}
			} else {
				// Correct: contains truth by construction.
				e := 0.5 + float64(rng.Intn(10))
				ivs[i] = Interval{Lo: truth - e, Hi: truth + e}
			}
		}
		span, ok := MarzulloSpan(ivs, n-f)
		if !ok {
			t.Fatalf("trial %d: no span at m=%d with %d correct sources", trial, n-f, n-f)
		}
		if !span.Contains(truth) {
			t.Fatalf("trial %d: span %v excludes truth %v (n=%d f=%d ivs=%v)",
				trial, span, truth, n, f, ivs)
		}
	}
}

// TestMarzulloSpanContainsAtLeast: the span at coverage m contains every
// point that at least m sources cover. Coverage changes only at an
// endpoint, so probing every endpoint probes every point.
func TestMarzulloSpanContainsAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = FromEstimate(float64(rng.Intn(30)), float64(rng.Intn(8))/2)
		}
		m := 1 + rng.Intn(n)
		span, ok := MarzulloSpan(ivs, m)
		for _, iv := range ivs {
			for _, p := range []float64{iv.Lo, iv.Hi} {
				if coverage(ivs, p) >= m && (!ok || !span.Contains(p)) {
					t.Fatalf("trial %d: %v covered %d >= %d times, outside span %v (ok=%v)",
						trial, p, coverage(ivs, p), m, span, ok)
				}
			}
		}
	}
}

func TestSelectAllAgree(t *testing.T) {
	sel, ok := Select([]Interval{FromEstimate(10, 2), FromEstimate(11, 2), FromEstimate(9.5, 2)})
	if !ok {
		t.Fatal("no majority among three agreeing sources")
	}
	if len(sel.Survivors) != 3 || len(sel.Falsetickers) != 0 {
		t.Fatalf("selection = %+v", sel)
	}
	// The selected region is the true intersection: [9, 11.5].
	if math.Abs(sel.Interval.Lo-9) > 1e-12 || math.Abs(sel.Interval.Hi-11.5) > 1e-12 {
		t.Errorf("interval = %v", sel.Interval)
	}
}

func TestSelectRejectsFalseticker(t *testing.T) {
	sel, ok := Select([]Interval{FromEstimate(10, 1), FromEstimate(10.5, 1), FromEstimate(100, 1)})
	if !ok {
		t.Fatal("no majority with two of three agreeing")
	}
	if !equalInts(sel.Survivors, []int{0, 1}) || !equalInts(sel.Falsetickers, []int{2}) {
		t.Fatalf("survivors = %v, falsetickers = %v", sel.Survivors, sel.Falsetickers)
	}
}

// TestSelectNoMajority: half is not a majority. Two pairs that each agree
// are as undecidable as four sources that share nothing.
func TestSelectNoMajority(t *testing.T) {
	for name, ivs := range map[string][]Interval{
		"all disjoint": {FromEstimate(0, 1), FromEstimate(100, 1), FromEstimate(200, 1), FromEstimate(300, 1)},
		"two pairs":    {FromEstimate(10, 1), FromEstimate(10.5, 1), FromEstimate(50, 1), FromEstimate(51, 1)},
	} {
		if sel, ok := Select(ivs); ok {
			t.Errorf("%s: selected %+v without a majority", name, sel)
		}
	}
}

// TestSelectEmptyAndInvalid: nothing agrees in an empty input. An inverted
// interval covers no point, so it can never be part of an agreement, but
// it is still a source that was asked: it counts toward the n a majority
// is taken of, and it is always a falseticker.
func TestSelectEmptyAndInvalid(t *testing.T) {
	if _, ok := Select(nil); ok {
		t.Error("empty input selected")
	}
	inverted := Interval{Lo: 2, Hi: 1}
	if _, ok := Select([]Interval{inverted}); ok {
		t.Error("a lone inverted interval selected")
	}
	good := FromEstimate(10, 1)
	if _, ok := Select([]Interval{good}); !ok {
		t.Error("a lone valid interval is its own majority")
	}
	if _, ok := Select([]Interval{good, inverted}); ok {
		t.Error("one of two is not a majority, whatever the other is")
	}
	sel, ok := Select([]Interval{inverted, good, good})
	if !ok || !equalInts(sel.Survivors, []int{1, 2}) || !equalInts(sel.Falsetickers, []int{0}) {
		t.Errorf("Select(inverted, good, good) = %+v, %v: want the inverted one the only falseticker", sel, ok)
	}
}

// TestSelectToleratesFMinority: with n = 10 and f < n/2 falsetickers, the
// correct sources always survive, no falseticker does, and the selected
// region contains the correct time.
func TestSelectToleratesFMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, truth = 10, 1000.0
	for f := 0; f <= 4; f++ {
		for trial := 0; trial < 100; trial++ {
			var ivs []Interval
			for i := 0; i < n-f; i++ {
				e := 0.5 + rng.Float64()
				ivs = append(ivs, FromEstimate(truth+(rng.Float64()*2-1)*e, e))
			}
			for i := 0; i < f; i++ {
				// Falsetickers are far off and tight, the dangerous kind.
				ivs = append(ivs, FromEstimate(truth+100+rng.Float64()*100, 0.1))
			}
			sel, ok := Select(ivs)
			if !ok {
				t.Fatalf("f=%d trial %d: no majority", f, trial)
			}
			if !sel.Interval.Contains(truth) {
				t.Fatalf("f=%d trial %d: selected interval %v excludes truth", f, trial, sel.Interval)
			}
			if len(sel.Survivors) != n-f || sel.Survivors[n-f-1] != n-f-1 {
				t.Fatalf("f=%d trial %d: survivors %v, want exactly the first %d", f, trial, sel.Survivors, n-f)
			}
		}
	}
}
