package hlc

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// randTimestamp draws a timestamp from a deliberately small value space
// so Wall, Logical, and Node collisions all occur and every tiebreak
// level of Compare is exercised.
func randTimestamp(rng *rand.Rand) Timestamp {
	return Timestamp{
		Wall:    int64(rng.IntN(4)),
		Logical: uint32(rng.IntN(3)),
		Node:    uint32(rng.IntN(3)),
	}
}

// TestCompareStrictTotalOrder checks the order axioms on a dense random
// sample: reflexivity (Compare(a,a) == 0), antisymmetry, transitivity,
// and agreement with the lexicographic (Wall, Logical, Node) order.
func TestCompareStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sample := make([]Timestamp, 200)
	for i := range sample {
		sample[i] = randTimestamp(rng)
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for _, a := range sample {
		if a.Compare(a) != 0 {
			t.Fatalf("Compare(%v, %v) = %d, want 0", a, a, a.Compare(a))
		}
		for _, b := range sample {
			ab, ba := a.Compare(b), b.Compare(a)
			if sign(ab) != -sign(ba) {
				t.Fatalf("Compare not antisymmetric: %v vs %v: %d and %d", a, b, ab, ba)
			}
			if ab == 0 && a != b {
				t.Fatalf("distinct timestamps compare equal: %v vs %v", a, b)
			}
			if (ab < 0) != a.Before(b) && ab != 0 {
				t.Fatalf("Before disagrees with Compare on %v vs %v", a, b)
			}
			for _, c := range sample[:20] {
				if ab < 0 && b.Compare(c) < 0 && a.Compare(c) >= 0 {
					t.Fatalf("Compare not transitive: %v < %v < %v but Compare(a,c)=%d",
						a, b, c, a.Compare(c))
				}
			}
		}
	}
	// Sorting by Compare must be a permutation consistent with pairwise
	// order (a total order admits exactly one sorted arrangement of
	// distinct elements).
	sorted := append([]Timestamp(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Compare(sorted[i-1]) < 0 {
			t.Fatalf("sorted order inconsistent at %d: %v before %v", i, sorted[i], sorted[i-1])
		}
	}
}

// TestClockStrictlyIncreases checks that a clock's issued timestamps are
// strictly increasing even when the physical input stalls or steps
// backwards (a reset on the disciplined clock).
func TestClockStrictlyIncreases(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	c := New(7)
	prev := c.Last()
	wall := int64(1000)
	for i := 0; i < 10000; i++ {
		switch rng.IntN(4) {
		case 0: // stall
		case 1: // step backwards
			wall -= int64(rng.IntN(50))
		default:
			wall += int64(rng.IntN(20))
		}
		var ts Timestamp
		if rng.IntN(3) == 0 {
			ts = c.Update(wall, randTimestamp(rng))
		} else {
			ts = c.Now(wall)
		}
		if !prev.Before(ts) {
			t.Fatalf("step %d: timestamp %v not after %v", i, ts, prev)
		}
		if ts.Node != 7 {
			t.Fatalf("step %d: node %d, want 7", i, ts.Node)
		}
		if ts.Wall < wall && rng != nil {
			// The physical component never falls behind the input wall.
			t.Fatalf("step %d: wall %d below input %d", i, ts.Wall, wall)
		}
		prev = ts
	}
}

// TestUpdateDominatesRemote checks the receive rule: the issued
// timestamp is strictly later than the remote one and than the local
// last, for every ordering of the three wall components.
func TestUpdateDominatesRemote(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10000; i++ {
		c := New(1)
		// Seed the local state with a few events.
		for k := rng.IntN(4); k > 0; k-- {
			c.Now(int64(rng.IntN(5)))
		}
		before := c.Last()
		remote := Timestamp{Wall: int64(rng.IntN(5)), Logical: uint32(rng.IntN(4)), Node: 2}
		wall := int64(rng.IntN(5))
		ts := c.Update(wall, remote)
		if !remote.Before(ts) {
			t.Fatalf("case %d: Update(%d, %v) = %v not after remote", i, wall, remote, ts)
		}
		if !before.Before(ts) {
			t.Fatalf("case %d: Update(%d, %v) = %v not after local last %v", i, wall, remote, ts, before)
		}
		if ts.Wall < wall {
			t.Fatalf("case %d: wall %d below input %d", i, ts.Wall, wall)
		}
	}
}

// hbEvent is one event of the happens-before simulation: its hybrid
// timestamp and its vector-clock coordinates.
type hbEvent struct {
	ts Timestamp
	vc []int
}

// vcLess reports strict vector-clock dominance: a happened before b.
func vcLess(a, b []int) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// hbMessage is one in-flight message of the simulation.
type hbMessage struct {
	ts Timestamp
	vc []int
}

// TestHappensBeforeImpliesTimestampOrder drives a random message-
// delivery DAG over skewed, stalling physical clocks and cross-checks
// the hybrid timestamps against a naive vector-clock reference: every
// pair of events ordered by the vector clocks must be ordered the same
// way by Compare. The converse is deliberately not asserted — HLC
// orders concurrent events too; that is what makes it a total order.
func TestHappensBeforeImpliesTimestampOrder(t *testing.T) {
	const nodes = 5
	rng := rand.New(rand.NewPCG(7, 8))
	clocks := make([]*Clock, nodes)
	phys := make([]int64, nodes)
	vcs := make([][]int, nodes)
	for i := range clocks {
		clocks[i] = New(uint32(i))
		phys[i] = int64(rng.IntN(2000)) // initial skew
		vcs[i] = make([]int, nodes)
	}
	var inflight []hbMessage
	var events []hbEvent
	record := func(node int, ts Timestamp) {
		vcs[node][node]++
		events = append(events, hbEvent{ts: ts, vc: append([]int(nil), vcs[node]...)})
	}
	for step := 0; step < 2000; step++ {
		node := rng.IntN(nodes)
		if rng.IntN(3) != 0 {
			phys[node] += int64(rng.IntN(30)) // advance, sometimes stalling
		}
		switch {
		case len(inflight) > 0 && rng.IntN(3) == 0: // receive
			k := rng.IntN(len(inflight))
			msg := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			for i, v := range msg.vc {
				if v > vcs[node][i] {
					vcs[node][i] = v
				}
			}
			record(node, clocks[node].Update(phys[node], msg.ts))
		case rng.IntN(2) == 0: // send
			ts := clocks[node].Now(phys[node])
			record(node, ts)
			inflight = append(inflight, hbMessage{ts: ts, vc: append([]int(nil), vcs[node]...)})
		default: // local event
			record(node, clocks[node].Now(phys[node]))
		}
	}
	checked := 0
	for i := range events {
		for j := range events {
			if vcLess(events[i].vc, events[j].vc) {
				checked++
				if events[i].ts.Compare(events[j].ts) >= 0 {
					t.Fatalf("happens-before violated: event %d (vc %v, ts %v) before event %d (vc %v, ts %v)",
						i, events[i].vc, events[i].ts, j, events[j].vc, events[j].ts)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("simulation produced no happens-before pairs")
	}
}

// TestLogicalBounded pins the boundedness claim: while physical clocks
// stay within a skew that is small relative to how far they advance
// between events (the regime interval containment guarantees — both
// substrates stamp at millisecond-plus spacing with sub-skew drift),
// the logical counter stays far below the ceiling the chaos monitor
// enforces. The bound is empirical but seeded, so a regression that
// inflates logical counters (e.g. breaking the reset-on-advance rule)
// fails deterministically.
func TestLogicalBounded(t *testing.T) {
	const nodes = 5
	rng := rand.New(rand.NewPCG(9, 10))
	clocks := make([]*Clock, nodes)
	offset := make([]int64, nodes) // fixed per-node skew: |phys_i - phys_j| <= 40
	for i := range clocks {
		clocks[i] = New(uint32(i))
		offset[i] = int64(rng.IntN(40)) - 20
	}
	var global int64 // shared real time; every node's clock tracks it
	phys := func(node int) int64 { return global + offset[node] }
	var inflight []Timestamp
	maxLogical := uint32(0)
	note := func(ts Timestamp) {
		if ts.Logical > maxLogical {
			maxLogical = ts.Logical
		}
	}
	for step := 0; step < 20000; step++ {
		global += 1 + int64(rng.IntN(10)) // real time advances every event
		node := rng.IntN(nodes)
		if len(inflight) > 0 && rng.IntN(3) == 0 {
			k := rng.IntN(len(inflight))
			msg := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			note(clocks[node].Update(phys(node), msg))
			continue
		}
		ts := clocks[node].Now(phys(node))
		note(ts)
		if rng.IntN(2) == 0 {
			inflight = append(inflight, ts)
		}
	}
	if maxLogical > 16 {
		t.Fatalf("logical counter reached %d; skew-bounded advancing clocks should keep it small", maxLogical)
	}
}

// TestWallFromSeconds checks the seconds<->nanoseconds conversion at the
// edges the substrates use.
func TestWallFromSeconds(t *testing.T) {
	cases := []struct {
		s    float64
		want int64
	}{
		{0, 0},
		{1, 1e9},
		{12.345678901, 12345678901},
		{0.25 + 0.05, 3e8}, // rounding, not truncation
	}
	for _, c := range cases {
		if got := WallFromSeconds(c.s); got != c.want {
			t.Errorf("WallFromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	ts := Timestamp{Wall: 12345678901}
	if got := ts.WallSeconds(); math.Abs(got-12.345678901) > 1e-12 {
		t.Errorf("WallSeconds = %v, want 12.345678901", got)
	}
}

// TestTimestampString pins the rendering the txn timeline prints.
func TestTimestampString(t *testing.T) {
	ts := Timestamp{Wall: 12345678901, Logical: 3, Node: 2}
	if got, want := ts.String(), "12.345678901:3@2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := (Timestamp{}).String(), "0.000000000:0@0"; got != want {
		t.Errorf("zero String() = %q, want %q", got, want)
	}
}

// TestCodecRoundTrip checks byte-exact encode/decode and the decode error
// paths.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 1000; i++ {
		ts := Timestamp{
			Wall:    rng.Int64(),
			Logical: rng.Uint32(),
			Node:    rng.Uint32(),
		}
		var buf [TimestampSize]byte
		PutTimestamp(buf[:], ts)
		dec, err := ParseTimestamp(buf[:])
		if err != nil {
			t.Fatalf("ParseTimestamp: %v", err)
		}
		if dec != ts {
			t.Fatalf("round trip %v -> %v", ts, dec)
		}
	}
	if _, err := ParseTimestamp(make([]byte, TimestampSize-1)); err == nil {
		t.Error("short buffer accepted")
	}
	bad := make([]byte, TimestampSize)
	bad[0] = 0x80 // wall sign bit: outside the codec's range
	if _, err := ParseTimestamp(bad); err == nil {
		t.Error("negative wall accepted")
	}
}

// TestClockConcurrent exercises the clock from many goroutines under
// -race: the issued timestamps must be pairwise distinct (every issue
// strictly advances the state, so no two calls can observe the same
// value).
func TestClockConcurrent(t *testing.T) {
	c := New(1)
	const workers, perWorker = 8, 1000
	out := make([][]Timestamp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]Timestamp, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					got = append(got, c.Update(int64(i), Timestamp{Wall: int64(i), Node: 2}))
				} else {
					got = append(got, c.Now(int64(i)))
				}
			}
			out[w] = got
		}()
	}
	wg.Wait()
	seen := make(map[Timestamp]bool, workers*perWorker)
	for _, got := range out {
		for _, ts := range got {
			if seen[ts] {
				t.Fatalf("timestamp %v issued twice", ts)
			}
			seen[ts] = true
		}
	}
	if ts := c.Now(0); ts.Node != 1 {
		t.Fatalf("stamp node = %d, want 1", ts.Node)
	}
}

// TestClockAndCodecAllocs holds this package's hot paths at zero
// allocations: one stamped exchange between two clocks (Now, Update, the order on the
// result) and one encode/decode round trip against retained buffers
// perform no allocation.
func TestClockAndCodecAllocs(t *testing.T) {
	local, remote := New(1), New(2)
	secs := 1.7e9
	if allocs := testing.AllocsPerRun(1000, func() {
		secs += 1e-3
		wall := WallFromSeconds(secs)
		sent := remote.Now(wall)
		if got := local.Update(wall, sent); !sent.Before(got) {
			t.Fatalf("Update issued %v, not after the remote %v", got, sent)
		}
	}); allocs != 0 {
		t.Errorf("Now+Update allocates %v times per exchange, want 0", allocs)
	}

	var buf [TimestampSize]byte
	ts := Timestamp{Wall: WallFromSeconds(secs), Logical: 3, Node: 2}
	if allocs := testing.AllocsPerRun(1000, func() {
		ts.Wall++
		PutTimestamp(buf[:], ts)
		got, err := ParseTimestamp(buf[:])
		if err != nil || got != ts {
			t.Fatalf("round trip %v -> %v, %v", ts, got, err)
		}
	}); allocs != 0 {
		t.Errorf("timestamp codec allocates %v times per round trip, want 0", allocs)
	}
}
