package core

import (
	"math"
	"slices"
	"testing"

	"disttime/internal/clock"
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
		res, used := n.Sync(0, slices.Clone(truth))
		if res.Reset || len(res.Inconsistent) != len(truth) || len(used) != len(truth) {
			t.Fatalf("recovery=%v: %+v over %d replies, want no reset and every reply flagged", recovery, res, len(used))
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
	res, _ := n.Sync(0, replies)
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
	res, _ := n.Sync(0, []Reply{truth[0], {From: 2, C: 3600, E: 0.01, RTT: 0.001}})
	if res.Reset || len(res.Inconsistent) == 0 {
		t.Fatalf("%+v: want the empty intersection reported", res)
	}
	if n.Recoveries != 0 || !math.IsInf(n.Server.ErrorAt(0), 1) {
		t.Errorf("Recoveries %d, E %v; want 0, +Inf", n.Recoveries, n.Server.ErrorAt(0))
	}

	// The same replies, consistent this time, set it: IM needs no
	// cold-start branch.
	res, _ = n.Sync(0, slices.Clone(truth))
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

// TestNodeRateFilter: a neighbor separating at 1e-3 against claimed
// bounds of 1e-5 each is dropped once it has been observed for
// RateFilterAfter, and not before.
func TestNodeRateFilter(t *testing.T) {
	for _, tc := range []struct {
		span    float64
		dropped bool
	}{{RateFilterAfter / 2, false}, {RateFilterAfter + 80, true}} {
		n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}}
		n.RateFilter = true
		observePair(n, 1, 1e-5, tc.span, tc.span*(1+1e-3))
		observePair(n, 2, 1e-5, tc.span, tc.span)
		replies := []Reply{{From: 1, E: 0.5, Delta: 1e-5}, {From: 2, E: 0.5, Delta: 1e-5}}
		_, used := n.Sync(0, replies)
		want := []int{1, 2}
		if tc.dropped {
			want = []int{2}
		}
		var got []int
		for _, r := range used {
			got = append(got, r.From)
		}
		if !slices.Equal(got, want) || n.RateFiltered != len(replies)-len(want) {
			t.Errorf("span %v: kept %v, RateFiltered %d; want %v", tc.span, got, n.RateFiltered, want)
		}
	}
}

// TestNodeAdaptiveDelta: a server 4% fast that claims 1e-5 sees its
// honest neighbors fall behind at about 4%. Once observed for AdaptAfter
// it raises its bound past its real drift; honest bounds stay as they
// are.
func TestNodeAdaptiveDelta(t *testing.T) {
	for _, tc := range []struct {
		localRate float64
		raised    bool
	}{{1.04, true}, {1, false}} {
		n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}}
		n.AdaptiveDelta = true
		span := AdaptAfter + 100
		observePair(n, 1, 1e-5, span, span/tc.localRate)
		observePair(n, 2, 1e-5, span, span/tc.localRate)
		n.Sync(0, nil)
		if got := n.DeltaRaises == 1; got != tc.raised {
			t.Fatalf("rate %v: DeltaRaises %d, want raised=%v", tc.localRate, n.DeltaRaises, tc.raised)
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
// allocates nothing.
func TestNodeRoundAllocs(t *testing.T) {
	n := &Node{Server: newServer(t, 0, 0, 0, 1e-5, 1), Fn: IM{}}
	now := 0.0
	round := func() {
		now++
		replies := n.Replies()
		for _, r := range truth {
			r.C += now
			replies = append(replies, r)
		}
		if res, _ := n.Sync(now, replies); !res.Reset {
			t.Fatalf("round at %v did not reset", now)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm round allocates %v times, want 0", allocs)
	}
}
