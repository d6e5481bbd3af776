package service

import (
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/simnet"
)

// TestMinDelayCreditAtTheEdge holds the band's Min credit, on a reply and
// on a request, to the band, not more: creditAtTheEdge puts the true time
// a nanosecond inside the lower edge of server 1's interval, so crediting
// a leg more than its delay moves the edge past the true time.
func TestMinDelayCreditAtTheEdge(t *testing.T) {
	for _, request := range []bool{false, true} {
		creditAtTheEdge(t, 1, request)
	}
}

// TestMaxDelayCreditAtTheEdge holds the band's Max, on a reply and on a
// request, to the band, not less. On a fixed link a reply's leg is d, so
// both its cap, Max, and the credit of the round trip less Max on the
// request's leg are tight, and so is a request's upper edge, its reading
// plus Max. With the true time on each edge of server 1's interval in
// turn, a Max read as less than d moves an edge past it.
func TestMaxDelayCreditAtTheEdge(t *testing.T) {
	for _, request := range []bool{false, true} {
		creditAtTheEdge(t, 1, request)
		creditAtTheEdge(t, -1, request)
	}
}

// creditAtTheEdge runs two IM servers on a fixed delay d (a simnet link
// with Min == Max) with exact clocks and a zero drift bound. Server 1's
// clock reads sign times its error, less a nanosecond, ahead of true
// time, so the true time sits on its interval's lower edge (sign 1) or
// upper edge (sign -1); server 0's error is wide. With request false,
// server 0 syncs and server 1 only serves, so server 0 learns server 1's
// reading from replies alone. With request true, server 1 syncs and
// server 0's first round comes after the run, so server 0 learns it from
// server 1's requests alone (core.Node.Hear). Every interval must stay on
// the true time at every check, and server 0 must adopt server 1's
// reading.
func creditAtTheEdge(t *testing.T, sign float64, request bool) {
	t.Helper()
	const d, ej, tiny, tau = 0.002, 0.01, 1e-9, 10.0
	specs := []ServerSpec{
		{InitialError: 0.05, SyncEvery: tau},
		{InitialOffset: sign * (ej - tiny), InitialError: ej},
	}
	if request {
		specs[0].SyncEvery, specs[1].SyncEvery = 1e6, tau
	}
	svc, err := New(Config{Seed: 3, Delay: core.Band{Min: d, Max: d}, Fn: core.IM{}, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0.25; ts <= 3*tau; ts += 0.25 {
		svc.Run(ts)
		if s := svc.Snapshot(); !s.AllCorrect {
			t.Fatalf("server 1 %+g of its error ahead, request %v, t=%v: offsets %v outside errors %v", sign, request, ts, s.Offset, s.E)
		}
	}
	n0 := svc.Nodes[0]
	if request && n0.Syncs != 0 {
		t.Fatalf("request: server 0 ran %d rounds, want none", n0.Syncs)
	}
	if n0.Server.Inconsistencies() != 0 || !(n0.Server.ErrorAt(svc.Sim.Now()) < 2*ej) {
		t.Fatalf("server 1 %+g of its error ahead, request %v: %d inconsistencies; server 0's error %v, want below %v: server 1's reading was not adopted",
			sign, request, n0.Server.Inconsistencies(), n0.Server.ErrorAt(svc.Sim.Now()), 2*ej)
	}
}

// TestRequestReadingTakers holds who takes a request's reading: only a
// plain-IM server that runs rounds. Server 1 syncs with a tight, correct
// interval and its requests reach server 0, whose error is wide and whose
// own rounds, if any, come after the run. Under IM server 0 adopts from
// the requests, in passes of their own that the sync observers see; under
// MM, SelectIM and ByzIM, and as an IM server that never syncs, it does
// not move.
func TestRequestReadingTakers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fn    core.SyncFunc
		every float64
		hears bool
	}{
		{"IM", core.IM{}, 1e6, true},
		{"IM dropping inconsistent", core.IM{DropInconsistent: true}, 1e6, true},
		{"IM, no rounds", core.IM{}, 0, false},
		{"MM", core.MM{}, 1e6, false},
		{"SelectIM", core.SelectIM{}, 1e6, false},
		{"ByzIM", core.ByzIM{}, 1e6, false},
	} {
		specs := []ServerSpec{
			{Delta: 1e-5, InitialError: 0.05, SyncEvery: tc.every, Fn: tc.fn},
			{Delta: 1e-5, InitialError: 0.001, SyncEvery: 10, Fn: core.IM{}},
		}
		svc, err := New(Config{Seed: 3, Delay: core.Band{Min: 0.001, Max: 0.002}, Servers: specs})
		if err != nil {
			t.Fatal(err)
		}
		heard := 0
		svc.AddSyncDetail(func(p core.Pass) {
			if p.Node == 0 && p.Sets > 0 && p.Replies == 0 {
				heard++
			}
		})
		svc.Run(30)
		n0 := svc.Nodes[0]
		if n0.Syncs != 0 {
			t.Fatalf("%s: server 0 ran %d rounds, want none", tc.name, n0.Syncs)
		}
		if got := n0.Server.Resets() > 0; got != tc.hears || heard != n0.Server.Resets() {
			t.Errorf("%s: server 0 reset %d times, %d observed passes; want reset %v, each observed", tc.name, n0.Server.Resets(), heard, tc.hears)
		}
		if !svc.Snapshot().AllCorrect {
			t.Errorf("%s: an interval lost the true time", tc.name)
		}
	}
}

// TestRateFilteredRequestDropped: a server's rate filter drops a
// neighbor's request as it drops its replies. Server 3 syncs, claims a
// tight bound and races beyond it; server 0's filter vetoes it. Then a
// request reading that would narrow server 0's interval is dropped when
// it comes from server 3, and adopted when it comes from honest server 1.
func TestRateFilteredRequestDropped(t *testing.T) {
	specs := make([]ServerSpec, 4)
	for i, d := range []float64{0.3e-5, -0.5e-5, 0.7e-5} {
		specs[i] = ServerSpec{Delta: 1.5 * math.Abs(d), Drift: d, InitialError: 0.05, SyncEvery: 30, RateFilter: true}
	}
	specs[3] = ServerSpec{Delta: 1e-5, Drift: 8e-5, InitialError: 0.05, SyncEvery: 30}
	svc, err := New(Config{Seed: 50, Delay: core.Band{Max: 0.002}, Fn: core.IM{DropInconsistent: true}, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(3600)
	n0 := svc.Nodes[0]
	if n0.RateFiltered == 0 {
		t.Fatal("server 0 filtered nothing; the offender is not filtered")
	}
	for _, tc := range []struct {
		from  int
		taken bool
	}{{3, false}, {1, true}} {
		now := svc.Sim.Now()
		r := n0.Server.Reading(now)
		filtered, resets := n0.RateFiltered, n0.Server.Resets()
		// A reading a hair narrower than server 0's own, read as the
		// request left d = 0.001 s ago.
		const d = 0.001
		n0.collect.open = false
		m := simnet.Message{From: svc.Nodes[tc.from].NetID, To: n0.NetID, Band: core.Band{Max: 0.002}}
		n0.hear(now, r, m, core.Reading{C: r.C - d, E: r.E / 2, Delta: 1e-5})
		if got := n0.Server.Resets() > resets; got != tc.taken || (n0.RateFiltered > filtered) == tc.taken {
			t.Errorf("request from server %d: adopted %v, RateFiltered %d -> %d; want adopted %v", tc.from, got, filtered, n0.RateFiltered, tc.taken)
		}
	}
}

// TestTwoFacedRequestsLie: a two-faced server's request carries the skew
// its reply to the same peer would, so a responder that takes the
// request's reading is lied to as a requester is. An honest server's
// request carries the same reading to every peer.
func TestTwoFacedRequestsLie(t *testing.T) {
	svc, err := New(Config{Seed: 4, Fn: core.IM{}, noStagger: true, Delay: core.Band{Max: 0.01}, Servers: correctSpecs(3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	offsets := []float64{0, 0.3, -0.2}
	svc.SetTwoFaced(0, offsets)
	// seen[from][to] is the C of each request from server from to server
	// to, by round.
	seen := make([][]map[uint32]float64, 3)
	for from := range seen {
		seen[from] = make([]map[uint32]float64, 3)
		for to := range seen[from] {
			seen[from][to] = map[uint32]float64{}
		}
	}
	for to, n := range svc.Nodes {
		svc.Net.SetHandler(n.NetID, func(m simnet.Message) {
			if req, ok := m.Payload.(timeRequest); ok {
				seen[m.From][to][req.id] = req.reading.C
			}
			n.handle(m)
		})
	}
	svc.Run(35)
	for from, off := range [][]float64{offsets, {0, 0, 0}, {0, 0, 0}} {
		a, b := (from+1)%3, (from+2)%3
		if len(seen[from][a]) == 0 {
			t.Fatalf("no requests from server %d", from)
		}
		for id, ca := range seen[from][a] {
			cb, ok := seen[from][b][id]
			if !ok {
				continue
			}
			if got, want := ca-cb, off[a]-off[b]; math.Abs(got-want) > 1e-9 {
				t.Errorf("server %d's request %d: C to %d less C to %d is %v, want %v", from, id, a, b, got, want)
			}
		}
	}
}

// TestSpikedRequestCreditsTheHull: Charge credits one band to both legs
// of an exchange, so a reply whose request crossed its link under another
// band is credited the hull of the two. Server 0's first request crosses
// a fixed link spiked to 0.03 s (the band times 3, as a chaos delay
// spike sets it), the spike ends as server 1 takes it, and the reply
// crosses at 0.01 s: the reply must carry [0.01, 0.03]. The reply's band
// alone would credit its leg 0.04 - 0.01 = 0.03 s, three times its delay.
func TestSpikedRequestCreditsTheHull(t *testing.T) {
	nominal := core.Band{Min: 0.01, Max: 0.01}
	specs := []ServerSpec{{InitialError: 0.05, SyncEvery: 10}, {InitialError: 0.01}}
	svc, err := New(Config{Seed: 3, Delay: nominal, Fn: core.IM{}, noStagger: true, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := svc.Nodes[0], svc.Nodes[1]
	a, b := n0.NetID, n1.NetID
	if err := svc.Net.Connect(a, b, simnet.LinkConfig{Delay: core.Band{Min: nominal.Min * 3, Max: nominal.Max * 3}}); err != nil {
		t.Fatal(err)
	}
	svc.Net.SetHandler(b, func(m simnet.Message) {
		if _, ok := m.Payload.(timeRequest); ok {
			if err := svc.Net.Connect(a, b, simnet.LinkConfig{Delay: nominal}); err != nil {
				t.Fatal(err)
			}
		}
		n1.handle(m)
	})
	var got []core.Reply
	svc.Net.SetHandler(a, func(m simnet.Message) {
		n0.handle(m)
		if _, ok := m.Payload.(*timeReply); ok && n0.collect.open {
			got = append(got, n0.collect.replies[len(n0.collect.replies)-1].reply)
		}
	})
	svc.Run(5)
	if len(got) != 1 || got[0].Band != (core.Band{Min: 0.01, Max: 0.03}) {
		t.Fatalf("replies %+v, want one carrying [0.01, 0.03]", got)
	}
	if !svc.Snapshot().AllCorrect {
		t.Error("an interval lost the true time")
	}
}
