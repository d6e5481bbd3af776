// Package interval implements the interval algebra underlying the time
// service of Marzullo & Owicki, "Maintaining the Time in a Distributed
// System" (Stanford CSL TR 83-247, PODC 1983).
//
// A time server answers a request with a pair <C, E>: its clock value C and
// a bound E on its maximum error. The pair denotes the real-time interval
// [C-E, C+E], which is guaranteed to contain the correct time while the
// server's drift bound is valid. This package provides:
//
//   - the Interval type and its algebra (intersection, consistency),
//   - N-way intersection (the basis of algorithm IM),
//   - the fault-tolerant "best intersection" sweep — Marzullo's algorithm —
//     which finds the interval contained in the largest number of source
//     intervals (the [Marzullo 83] extension used by NTP),
//   - majority selection over that sweep (Select): the one place the
//     survivor/falseticker split is decided, for the simulator's SelectIM
//     and the UDP client's SyncSelect alike,
//   - consistency-group decomposition of an inconsistent service (Figure 4).
//
// All times are float64 seconds on the real-time axis. The package is pure:
// no goroutines, no allocation beyond returned slices. The sweep algorithms
// run through a reusable Sweeper whose scratch buffers make the package-level
// entry points allocation-free in steady state (a sync.Pool recycles
// sweepers across calls and goroutines).
package interval

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Interval is a closed interval [Lo, Hi] on the real-time axis, in seconds.
// In the paper's vocabulary Lo is the trailing edge (C-E) and Hi the leading
// edge (C+E).
type Interval struct {
	Lo float64
	Hi float64
}

// FromEstimate returns the interval [c-e, c+e] for a clock reading c with
// maximum error e. A negative error is treated as zero.
func FromEstimate(c, e float64) Interval {
	if e < 0 {
		e = 0
	}
	return Interval{Lo: c - e, Hi: c + e}
}

// Midpoint returns the center of the interval, the clock value C of the
// equivalent <C, E> pair.
func (iv Interval) Midpoint() float64 { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// HalfWidth returns the maximum error E of the equivalent <C, E> pair.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Valid reports whether Lo <= Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether t lies within the closed interval.
func (iv Interval) Contains(t float64) bool { return iv.Lo <= t && t <= iv.Hi }

// ContainsInterval reports whether other is a subset of iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Intersect returns the intersection of two intervals, per equation 12 of
// the paper:
//
//	[max(Ci-Ei, Cj-Ej) .. min(Ci+Ei, Cj+Ej)]
//
// The boolean result is false when the intervals are disjoint (the servers
// are inconsistent); the returned interval is then inverted and should not
// be used as a time estimate.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	out := Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
	return out, out.Lo <= out.Hi
}

// Consistent reports whether two server intervals mutually admit a correct
// time, i.e. whether they overlap. For <Ci, Ei> and <Cj, Ej> this is the
// paper's consistency predicate |Ci - Cj| <= Ei + Ej.
func Consistent(a, b Interval) bool {
	return a.Lo <= b.Hi && b.Lo <= a.Hi
}

// String renders the interval as the pair <C, E> followed by its edges.
func (iv Interval) String() string {
	return fmt.Sprintf("<C=%.6g, E=%.6g>[%.6g, %.6g]", iv.Midpoint(), iv.HalfWidth(), iv.Lo, iv.Hi)
}

// IntersectAll returns the intersection of all intervals and whether it is
// non-empty. An empty input yields (zero Interval, false): with no evidence
// there is no defined estimate. A service whose intervals have a non-empty
// common intersection is consistent in the paper's sense.
func IntersectAll(ivs []Interval) (Interval, bool) {
	if len(ivs) == 0 {
		return Interval{}, false
	}
	out := ivs[0]
	for _, iv := range ivs[1:] {
		var ok bool
		if out, ok = out.Intersect(iv); !ok {
			return out, false
		}
	}
	return out, true
}

// edge is one endpoint of an interval for the sweep algorithms.
type edge struct {
	at    float64
	delta int32 // +1 for a lower edge, -1 for an upper edge
	idx   int32 // index of the source interval
}

// edgeSlice is a concrete sort.Interface over sweep endpoints: ordered by
// position; at equal positions lower edges come first so that intervals
// sharing only a single point still count as intersecting (intervals are
// closed). A concrete named type (sorted through a pointer) avoids both the
// sort.Slice closure and the interface-boxing allocation of sort.Sort on a
// bare slice value.
type edgeSlice []edge

func (s edgeSlice) Len() int { return len(s) }

func (s edgeSlice) Less(i, j int) bool {
	if s[i].at != s[j].at {
		return s[i].at < s[j].at
	}
	return s[i].delta > s[j].delta
}

func (s edgeSlice) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// Best is the result of Marzullo's fault-tolerant intersection sweep.
type Best struct {
	// Interval is the leftmost maximal region covered by Count sources.
	Interval Interval
	// Count is the largest number of source intervals sharing a common
	// point.
	Count int
}

// Sweeper runs the endpoint-sweep algorithms (Marzullo's fault-tolerant
// intersection, its span at coverage m, and consistency-group
// decomposition) using reusable scratch buffers: the edge list and the
// active-set bitset survive across calls, so a warmed Sweeper performs no
// allocation beyond what a result itself requires (Marzullo and
// MarzulloSpan allocate nothing; ConsistencyGroups allocates only the
// returned groups).
//
// A Sweeper is not safe for concurrent use; the package-level functions
// draw sweepers from a pool and remain safe to call from parallel
// experiment trials.
type Sweeper struct {
	edges  edgeSlice
	active []uint64 // bitset of open interval indices (ConsistencyGroups)
}

// NewSweeper returns a Sweeper with capacity for n source intervals. The
// buffers grow on demand, so n is only a hint.
func NewSweeper(n int) *Sweeper {
	return &Sweeper{
		edges:  make(edgeSlice, 0, 2*n),
		active: make([]uint64, (n+63)/64),
	}
}

// load fills the scratch edge list from the valid members of ivs and sorts
// it. It reports the number of edges loaded.
func (sw *Sweeper) load(ivs []Interval) int {
	edges := sw.edges[:0]
	for i, iv := range ivs {
		if !iv.Valid() {
			continue
		}
		edges = append(edges,
			edge{at: iv.Lo, delta: +1, idx: int32(i)},
			edge{at: iv.Hi, delta: -1, idx: int32(i)})
	}
	sw.edges = edges
	// Sorting through the pointer keeps the interface conversion
	// allocation-free (*edgeSlice is already heap-addressable).
	sort.Sort(&sw.edges)
	return len(edges)
}

// Marzullo is the Sweeper form of the package-level Marzullo.
func (sw *Sweeper) Marzullo(ivs []Interval) Best {
	if sw.load(ivs) == 0 {
		return Best{}
	}
	var best Best
	depth := 0
	for i, e := range sw.edges {
		depth += int(e.delta)
		if e.delta > 0 && depth > best.Count {
			best.Count = depth
			best.Interval = Interval{Lo: e.at, Hi: sw.edges[i+1].at}
		}
	}
	return best
}

// MarzulloSpan is the Sweeper form of the package-level MarzulloSpan.
func (sw *Sweeper) MarzulloSpan(ivs []Interval, m int) (Interval, bool) {
	if m <= 0 {
		return Interval{}, false
	}
	sw.load(ivs)
	depth := 0
	start := math.NaN()
	end := math.NaN()
	for _, e := range sw.edges {
		depth += int(e.delta)
		if e.delta > 0 && depth == m && math.IsNaN(start) {
			start = e.at
		}
		if e.delta < 0 && depth == m-1 {
			end = e.at
		}
	}
	if math.IsNaN(start) {
		return Interval{}, false
	}
	return Interval{Lo: start, Hi: end}, true
}

// sweeperPool recycles Sweepers behind the package-level entry points, so
// Marzullo and MarzulloSpan are allocation-free in steady state and safe
// under concurrent experiment trials.
var sweeperPool = sync.Pool{New: func() any { return NewSweeper(16) }}

// Marzullo computes the interval contained in the largest number of source
// intervals — the fault-tolerant intersection of [Marzullo 83] adopted by
// NTP for clock selection. With k of n intervals correct, any point covered
// by more than n-k intervals is covered by at least one correct interval.
//
// It runs in O(n log n). For an empty input it returns a zero Best.
// Inverted inputs are ignored.
func Marzullo(ivs []Interval) Best {
	sw := sweeperPool.Get().(*Sweeper)
	best := sw.Marzullo(ivs)
	sweeperPool.Put(sw)
	return best
}

// MarzulloSpan returns the envelope of agreement at coverage m: the span
// from the first point covered by at least m source intervals to the last
// such point, and whether any point reaches that coverage. Unlike the
// leftmost maximal region Marzullo returns, the span includes every point
// of sufficient coverage, so it is the sound
// basis for Byzantine-tolerant adoption: with at most f arbitrary liars
// among the sources and m chosen so that the correct sources alone reach
// m, real time is covered by all correct intervals and therefore lies
// inside the span, wherever the liars place their endpoints. m must be
// positive.
func MarzulloSpan(ivs []Interval, m int) (Interval, bool) {
	sw := sweeperPool.Get().(*Sweeper)
	iv, ok := sw.MarzulloSpan(ivs, m)
	sweeperPool.Put(sw)
	return iv, ok
}

// Selection is the outcome of Select: the agreed region and the partition
// of the inputs into the sources that share it and the ones that do not.
type Selection struct {
	// Interval is the region every survivor contains: their common
	// intersection.
	Interval Interval
	// Survivors and Falsetickers partition the input indices, each in
	// increasing order.
	Survivors    []int
	Falsetickers []int
}

// Select is majority selection, the [Marzullo 83] extension to failing
// clocks: it finds the region covered by the largest number of intervals
// and, when that number is a strict majority of the inputs, splits the
// inputs into the survivors that contain the region and the falsetickers
// that do not. With n inputs of which fewer than half are wrong, the
// correct ones all contain the correct time, so they alone outnumber any
// agreement among the rest and the selected region is the one they share.
// It reports false when no point reaches a majority, which includes the
// empty input: the sources are too inconsistent to choose among.
//
// An inverted input covers no point, so it counts toward n and is always
// a falseticker.
//
// The sweep's region needs no tightening. It runs from the last lower
// edge at its left end to the next edge in sorted order, which is an upper
// edge (another lower edge would raise the coverage past its maximum), and
// no endpoint lies strictly between the two. So every input that meets the
// region contains it, and the inputs that own those two edges are among
// them: the region is exactly the survivors' intersection (FuzzSelect
// holds it to that).
func Select(ivs []Interval) (Selection, bool) {
	best := Marzullo(ivs)
	if best.Count <= len(ivs)/2 {
		return Selection{}, false
	}
	sel := Selection{Interval: best.Interval, Survivors: make([]int, 0, best.Count)}
	for i, iv := range ivs {
		if iv.ContainsInterval(best.Interval) {
			sel.Survivors = append(sel.Survivors, i)
		} else {
			sel.Falsetickers = append(sel.Falsetickers, i)
		}
	}
	return sel, true
}

// Group is one maximal set of mutually consistent intervals, together with
// their common intersection. It corresponds to one shaded region of the
// paper's Figure 4.
type Group struct {
	// Members are indices into the input slice, in increasing order.
	Members []int
	// Intersection is the region shared by every member.
	Intersection Interval
}

// ConsistencyGroups decomposes a (possibly inconsistent) set of server
// intervals into its maximal mutually-consistent subsets: the maximal
// cliques of the interval-overlap graph. A consistent service yields a
// single group containing every interval; the paper's Figure 4 service
// yields three overlapping groups. Because the overlap graph of intervals
// is an interval graph, the maximal cliques are exactly the distinct
// maximal active sets of a sweep over sorted endpoints, found in
// O(n log n + output).
//
// Inverted inputs are skipped and appear in no group.
func ConsistencyGroups(ivs []Interval) []Group {
	sw := sweeperPool.Get().(*Sweeper)
	groups := sw.ConsistencyGroups(ivs)
	sweeperPool.Put(sw)
	return groups
}

// ConsistencyGroups is the Sweeper form of the package-level
// ConsistencyGroups. Only the returned groups are allocated; the sweep's
// active set lives in a reused bitset, and each clique's common
// intersection falls out of the sweep itself (its lower edge is the most
// recent open, its upper edge the close that ended the clique), so no
// per-group re-intersection is needed.
func (sw *Sweeper) ConsistencyGroups(ivs []Interval) []Group {
	if sw.load(ivs) == 0 {
		return nil
	}
	words := (len(ivs) + 63) / 64
	if cap(sw.active) < words {
		sw.active = make([]uint64, words)
	}
	active := sw.active[:words]
	for i := range active {
		active[i] = 0
	}

	var groups []Group
	activeCount := 0
	lastOpenAt := 0.0
	lastWasOpen := false
	for _, e := range sw.edges {
		if e.delta > 0 {
			active[e.idx>>6] |= 1 << (uint(e.idx) & 63)
			activeCount++
			lastOpenAt = e.at
			lastWasOpen = true
			continue
		}
		if lastWasOpen {
			// A close immediately after an open: the active set is a
			// maximal clique. Members come out of the bitset in increasing
			// index order; the clique's common intersection is [last open,
			// this close] — the maximum lower edge and minimum upper edge
			// of the active intervals.
			members := make([]int, 0, activeCount)
			for w, word := range active {
				for word != 0 {
					members = append(members, w<<6+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			groups = append(groups, Group{
				Members:      members,
				Intersection: Interval{Lo: lastOpenAt, Hi: e.at},
			})
		}
		active[e.idx>>6] &^= 1 << (uint(e.idx) & 63)
		activeCount--
		lastWasOpen = false
	}
	return groups
}

// SameEdge reports whether two interval endpoints (or any two float64
// time values) are exactly the same value. It exists as the approved
// exact-equality helper for the floateq analyzer: computed endpoints
// rarely share bit patterns, so ordinary code must not compare them with
// ==, but sentinel tests ("did this value change at all?") and tie-breaks
// on genuinely identical values are legitimate — routing them through
// SameEdge makes the intent machine-checkable. NaN is never the same as
// anything, including itself.
func SameEdge(a, b float64) bool { return a == b }
