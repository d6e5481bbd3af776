package core

import (
	"math"
	"slices"
	"testing"

	"disttime/internal/clock"
	"disttime/internal/interval"
)

// truth is three honest replies at real time t = 0 on a perfect timeline.
var truth = []Reply{
	{From: 1, C: 0, E: 0.01, RTT: 0.001},
	{From: 2, C: 0.002, E: 0.01, RTT: 0.001},
	{From: 3, C: -0.002, E: 0.01, RTT: 0.001},
}

// TestNodeRecoversFromThirdServer is E9's shape in one round: a server an
// hour off with a tight bound finds rule IM-2's intersection empty, every
// reply flagged, and resets to "any third server": the first reply from a
// server other than the first offender.
func TestNodeRecoversFromThirdServer(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		n := &Node{Server: newServer(t, 0, 0, 3600, 1e-5, 0.001), Fn: IM{}}
		n.Recovery = recovery
		p := n.Sync(0, slices.Clone(truth))
		if p.Result.Reset || len(p.Result.Inconsistent) != len(truth) || p.Replies != len(truth) {
			t.Fatalf("recovery=%v: %+v over %d replies, want no reset and every reply flagged", recovery, p.Result, p.Replies)
		}
		if !recovery {
			if n.Recoveries != 0 || math.Abs(n.Server.Read(0)-3600) > 1e-9 {
				t.Errorf("recovery off: %d recoveries, clock %v", n.Recoveries, n.Server.Read(0))
			}
			continue
		}
		if n.Recoveries != 1 || n.Syncs != 1 || n.Resets != 0 {
			t.Errorf("Recoveries %d, Syncs %d, Resets %d; want 1, 1, 0", n.Recoveries, n.Syncs, n.Resets)
		}
		if got := n.Server.Read(0); math.Abs(got-truth[1].C) > 1e-12 {
			t.Errorf("clock %v after recovery, want replies[1]'s %v", got, truth[1].C)
		}
		if !n.Server.Interval(0).Contains(0) {
			t.Errorf("recovered interval %v misses true time 0", n.Server.Interval(0))
		}
	}
}

// TestNodeRecoveryPrefersConsistentReply: under MM a reply consistent
// with the server is adopted in preference to any third server.
func TestNodeRecoveryPrefersConsistentReply(t *testing.T) {
	n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: MM{}}
	n.Recovery = true
	replies := []Reply{
		{From: 1, C: 50, E: 0.01, RTT: 0.001},
		{From: 2, C: 0.01, E: 0.01, RTT: 0.001},
	}
	res := n.Sync(0, replies).Result
	if !slices.Equal(res.Inconsistent, []int{0}) || n.Recoveries != 1 {
		t.Fatalf("Inconsistent %v, Recoveries %d; want [0], 1", res.Inconsistent, n.Recoveries)
	}
	if got := n.Server.Read(0); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("clock %v, want the consistent reply's 0.01", got)
	}
}

// TestNodeRecoveryNeedsAThirdServer: every reply inconsistent and from
// the same server leaves no third server to adopt.
func TestNodeRecoveryNeedsAThirdServer(t *testing.T) {
	n := &Node{Server: newServer(t, 0, 0, 3600, 1e-5, 0.001), Fn: IM{}}
	n.Recovery = true
	before := n.Server.Read(0)
	n.Sync(0, []Reply{truth[0], truth[0]})
	if got := n.Server.Read(0); n.Recoveries != 0 || got != before {
		t.Errorf("Recoveries %d, clock %v; want 0 and the clock left at %v", n.Recoveries, got, before)
	}
}

// TestNodeUnboundedDoesNotRecover: a server with no interval (E = +Inf,
// a clock never set) is inconsistent with nobody. Two irreconcilable
// replies fail rule IM-2, and recovery does not pick one of them.
func TestNodeUnboundedDoesNotRecover(t *testing.T) {
	n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, math.Inf(1)), Fn: IM{}}
	n.Recovery = true
	res := n.Sync(0, []Reply{truth[0], {From: 2, C: 3600, E: 0.01, RTT: 0.001}}).Result
	if res.Reset || len(res.Inconsistent) == 0 {
		t.Fatalf("%+v: want the empty intersection reported", res)
	}
	if n.Recoveries != 0 || !math.IsInf(n.Server.ErrorAt(0), 1) {
		t.Errorf("Recoveries %d, E %v; want 0, +Inf", n.Recoveries, n.Server.ErrorAt(0))
	}

	// The same replies, consistent this time, set it: IM needs no
	// cold-start branch.
	res = n.Sync(0, slices.Clone(truth)).Result
	if !res.Reset || !n.Server.Interval(0).Contains(0) {
		t.Errorf("%+v, interval %v: want a reset containing 0", res, n.Server.Interval(0))
	}
}

// TestSelectIMUnboundedCastsNoVote: a server with no interval votes
// nothing, so the selection's indices count the replies alone; once it
// has an interval it votes, and the survivors include it.
func TestSelectIMUnboundedCastsNoVote(t *testing.T) {
	liar := Reply{From: 4, C: 3600, E: 0.001, RTT: 0.001}
	replies := append(slices.Clone(truth), liar)

	s := newServer(t, 0, 0, 0, 1e-5, math.Inf(1))
	res := SelectIM{}.Sync(s, 0, replies)
	if !res.Reset || !slices.Equal(res.Inconsistent, []int{3}) || res.Accepted != 3 {
		t.Fatalf("unbounded: %+v, want a reset, [3] flagged, 3 accepted", res)
	}

	res = SelectIM{}.Sync(s, 0, replies)
	if !res.Reset || !slices.Equal(res.Inconsistent, []int{3}) || res.Accepted != 4 {
		t.Errorf("bounded: %+v, want a reset, [3] flagged, 4 accepted (its own vote)", res)
	}
}

// observePair records two samples of neighbor from, span local seconds
// apart, whose remote clock advanced by remoteSpan.
func observePair(n *Node, from int, delta, span, remoteSpan float64) {
	n.Observe(Reply{From: from, C: 0, RTT: 0.001, Delta: delta}, 0)
	n.Observe(Reply{From: from, C: remoteSpan, RTT: 0.001, Delta: delta}, span)
}

// TestNodeRateFilter: each row observes neighbors 1, 2, ... for span
// local seconds at the given separation rates, each claiming 1e-5, then
// runs one round over one reply from each.
func TestNodeRateFilter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta float64 // the node's own claimed bound
		span  float64
		rates []float64 // neighbor i+1's separation rate from the node
		kept  []int
	}{
		{"too soon to judge", 1e-5, RateFilterAfter / 2, []float64{1e-3, 0}, []int{1, 2}},
		{"vetoed past twice the bounds", 1e-5, RateFilterAfter + 80, []float64{1e-3, 0}, []int{2}},
		// The pair agrees and outvotes the node's own claim; the veto
		// drops each of them anyway.
		{"agreeing dissonant pair vetoed", 1e-5, RateFilterAfter + 80, []float64{1e-3, 1e-3}, nil},
		// The node's wide bound explains the upstream's rate, so no veto;
		// the upstream's constraint meets the node's claim but misses the
		// three honest neighbors' majority.
		{"upstream outvoted", 8e-5, 1000, []float64{0, 1e-6, -1e-6, 8e-5}, []int{1, 2, 3}},
		// Two regions tie at two votes: the node's claim with the honest
		// neighbor, and with the upstream. A tie names no falseticker.
		{"tie drops neither", 8e-5, 1000, []float64{0, 8e-5}, []int{1, 2}},
	} {
		n := &Node{Server: newServer(t, 0, 0, 0, tc.delta, 1), Fn: IM{}}
		n.RateFilter = true
		var replies []Reply
		for i, rate := range tc.rates {
			observePair(n, i+1, 1e-5, tc.span, tc.span*(1+rate))
			replies = append(replies, Reply{From: i + 1, E: 0.5, Delta: 1e-5})
		}
		p := n.Sync(0, replies)
		var got []int
		for _, r := range replies[:p.Replies] {
			got = append(got, r.From)
		}
		if !slices.Equal(got, tc.kept) || n.RateFiltered != len(tc.rates)-len(tc.kept) {
			t.Errorf("%s: kept %v, RateFiltered %d; want %v", tc.name, got, n.RateFiltered, tc.kept)
		}
	}
}

// TestNodeAdaptiveDelta: a server 4% fast that claims 1e-5 sees its
// honest neighbors fall behind at about 4%. Once observed for AdaptAfter
// it raises its bound past its real drift, even with one neighbor (rate
// 1.04) lying alongside it; honest bounds stay as they are.
func TestNodeAdaptiveDelta(t *testing.T) {
	for _, tc := range []struct {
		localRate float64
		remote    []float64 // each neighbor's clock rate; each claims 1e-5
		raised    bool
	}{
		{1.04, []float64{1, 1}, true},
		{1.04, []float64{1, 1, 1.04}, true},
		{1, []float64{1, 1}, false},
	} {
		n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}}
		n.AdaptiveDelta = true
		span := AdaptAfter + 100
		for i, r := range tc.remote {
			observePair(n, i+1, 1e-5, span, span*r/tc.localRate)
		}
		n.Sync(0, nil)
		if got := n.DeltaRaises == 1; got != tc.raised {
			t.Fatalf("rate %v, neighbors %v: DeltaRaises %d, want raised=%v", tc.localRate, tc.remote, n.DeltaRaises, tc.raised)
		}
		if tc.raised && n.Server.Delta() < 0.04/1.04 {
			t.Errorf("raised delta %v, want at least the real drift %v", n.Server.Delta(), 0.04/1.04)
		}
	}
}

// TestNodeShiftsRatesAcrossReset: a reset jumps the local timeline, and
// the node translates the stored rate samples by the jump, so a neighbor
// running at the true rate still reads as rate 0 afterwards.
func TestNodeShiftsRatesAcrossReset(t *testing.T) {
	srv, err := NewServer(0, Config{Clock: clock.NewDrifting(0, -5, 0), Delta: 1e-5, InitialError: 10})
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{Server: srv, Fn: IM{}}
	n.Observe(Reply{From: 1, C: 0, RTT: 0.001}, n.Server.Read(0))
	// At t = 100 the clock reads 95; a tight reply of the truth moves it 5
	// ahead.
	n.Sync(100, []Reply{{From: 2, C: 100, E: 0.001, RTT: 0.001}})
	if got := n.Server.Read(100); math.Abs(got-100) > 0.01 {
		t.Fatalf("clock %v after the reset, want ~100", got)
	}
	n.Observe(Reply{From: 1, C: 200, RTT: 0.001}, n.Server.Read(200))
	if est := n.Rates.Estimate(1); !est.Valid || math.Abs(est.Rate) > 1e-3 {
		t.Errorf("estimate %+v across the reset, want rate ~0", est)
	}
}

// TestNodeRoundAllocs: a warm round through the node's reply buffer
// allocates nothing, with the policy switches off and with the rate
// filter and δ maintenance voting over every neighbor.
func TestNodeRoundAllocs(t *testing.T) {
	for _, on := range []bool{false, true} {
		n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}}
		n.RateFilter, n.AdaptiveDelta = on, on
		now := 0.0
		round := func() {
			now += 10
			replies := n.Replies()
			for _, r := range truth {
				r.C += now
				n.Observe(r, n.Server.Read(now))
				replies = append(replies, r)
			}
			if p := n.Sync(now, replies); !p.Result.Reset {
				t.Fatalf("round at %v did not reset", now)
			}
		}
		for now < AdaptAfter {
			round()
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("switches %v: a warm round allocates %v times, want 0", on, allocs)
		}
		if n.RateFiltered != 0 || n.DeltaRaises != 0 {
			t.Errorf("switches %v: RateFiltered %d, DeltaRaises %d over honest replies", on, n.RateFiltered, n.DeltaRaises)
		}
	}
}

// TestNodePassRecord holds the record Sync returns to what a caller
// bracketing the call would see: Before and After are the server's
// readings either side of it, Sets the server's reset-count delta, which
// counts every clock set (MM's per reply, and a rule's reset then a
// recovery's adopt), Recovered the recovery count's delta, Replies the
// replies the rate filter kept and Rate the server's rate discipline
// state (no row steers: TestNodeDiscipline holds the steps).
func TestNodePassRecord(t *testing.T) {
	far := Reply{From: 4, C: 50, E: 0.01, RTT: 0.001}
	liar := Reply{From: 4, C: 3600, E: 0.001, RTT: 0.001}
	for _, tc := range []struct {
		name      string
		node      func() *Node
		replies   []Reply
		sets      int
		recovered bool
		replied   int
		holds     func(Pass) bool // a row's own check, when it has one
	}{
		{"MM adopts twice", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: MM{}}
		}, []Reply{{From: 1, C: 0.01, E: 0.01, RTT: 0.001}, {From: 2, C: 0.005, E: 0.001, RTT: 0.001}}, 2, false, 2, nil},
		{"IM drops one", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: IM{DropInconsistent: true}}
		}, append(slices.Clone(truth), far), 1, false, 4, nil},
		{"SelectIM", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: SelectIM{}}
		}, append(slices.Clone(truth), liar), 1, false, 4, nil},
		{"ByzIM", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: ByzIM{}}
		}, append(slices.Clone(truth), liar), 1, false, 4, nil},
		{"IM resets, recovery adopts", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, 0.1), Fn: IM{DropInconsistent: true}, Recovery: true}
		}, append(slices.Clone(truth), far), 2, true, 4, nil},
		{"recovery alone", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 3600, 1e-5, 0.001), Fn: IM{}, Recovery: true}
		}, slices.Clone(truth), 1, true, 3, nil},
		{"rate filtered", func() *Node {
			n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}, RateFilter: true}
			observePair(n, 1, 1e-5, RateFilterAfter+80, (RateFilterAfter+80)*(1+1e-3))
			observePair(n, 2, 1e-5, RateFilterAfter+80, RateFilterAfter+80)
			return n
		}, []Reply{{From: 1, E: 0.5, Delta: 1e-5}, {From: 2, E: 0.5, Delta: 1e-5}}, 1, false, 1, nil},
		{"delta raised", func() *Node {
			n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}, AdaptiveDelta: true}
			for i := range 2 {
				observePair(n, i+1, 1e-5, AdaptAfter+100, (AdaptAfter+100)/1.04)
			}
			return n
		}, nil, 0, false, 0, func(p Pass) bool { return p.After.Delta > p.Before.Delta }},
		{"never set", func() *Node {
			return &Node{Server: newServer(t, 0, 0, 0, 1e-5, math.Inf(1)), Fn: IM{}, Recovery: true}
		}, slices.Clone(truth), 1, false, 3, func(p Pass) bool { return math.IsInf(p.Before.E, 1) && p.After.Interval().Contains(0) }},
	} {
		n := tc.node()
		const at = 0
		before, resets, recoveries, filtered := n.Server.Reading(at), n.Server.Resets(), n.Recoveries, n.RateFiltered
		p := n.Sync(at, tc.replies)
		if p.Node != n.Server.ID() || !interval.SameEdge(p.T, at) || p.Fn != n.Fn.Name() {
			t.Errorf("%s: Node %d, T %v, Fn %q; want %d, %v, %q", tc.name, p.Node, p.T, p.Fn, n.Server.ID(), at, n.Fn.Name())
		}
		if after := n.Server.Reading(at); p.Before != before || p.After != after {
			t.Errorf("%s: Before %+v, After %+v; the server read %+v, %+v", tc.name, p.Before, p.After, before, after)
		}
		if want := n.Server.Rate(); p.Rate != want {
			t.Errorf("%s: Rate %+v; the server's is %+v", tc.name, p.Rate, want)
		}
		if got := n.Server.Resets() - resets; p.Sets != got || p.Sets != tc.sets {
			t.Errorf("%s: Sets %d, the server reset %d times; want %d", tc.name, p.Sets, got, tc.sets)
		}
		if got := n.Recoveries - recoveries; p.Recovered != (got == 1) || p.Recovered != tc.recovered {
			t.Errorf("%s: Recovered %v after %d recoveries; want %v", tc.name, p.Recovered, got, tc.recovered)
		}
		if got := len(tc.replies) - (n.RateFiltered - filtered); p.Replies != got || p.Replies != tc.replied {
			t.Errorf("%s: Replies %d, the filter kept %d; want %d", tc.name, p.Replies, got, tc.replied)
		}
		if tc.holds != nil && !tc.holds(p) {
			t.Errorf("%s: %+v", tc.name, p)
		}
	}
}
