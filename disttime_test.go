package disttime_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"disttime"
	"disttime/internal/member"
	"disttime/internal/obs"
	"disttime/internal/service"
)

func TestMarzulloFacade(t *testing.T) {
	best := disttime.Marzullo([]disttime.Interval{
		disttime.FromEstimate(10.000, 0.005),
		disttime.FromEstimate(10.003, 0.004),
		disttime.FromEstimate(99.0, 0.001),
	})
	if best.Count != 2 {
		t.Fatalf("Count = %d, want 2", best.Count)
	}
	if !best.Interval.Contains(10.001) {
		t.Errorf("best interval %v excludes the overlap", best.Interval)
	}
}

func TestIntersectReadings(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	readings := []disttime.TimeReading{
		{C: base, E: 100 * time.Millisecond},
		{C: base.Add(50 * time.Millisecond), E: 100 * time.Millisecond},
	}
	c, e, ok := disttime.IntersectReadings(readings)
	if !ok {
		t.Fatal("consistent readings reported inconsistent")
	}
	// Common interval: [base-50ms, base+100ms] -> midpoint base+25ms,
	// half-width 75ms. 0.075 s has no exact float64, and the bound rounds
	// up, so it may come out a nanosecond wide.
	if got := c.Sub(base); got != 25*time.Millisecond {
		t.Errorf("midpoint offset = %v, want 25ms", got)
	}
	if e < 75*time.Millisecond || e > 75*time.Millisecond+time.Nanosecond {
		t.Errorf("error = %v, want 75ms", e)
	}

	// The common interval [base, base+1ns] has its midpoint and its
	// half-width at half a nanosecond. The midpoint truncates, and the
	// bound takes up what that drops and rounds up, not toward zero, so
	// the answer still covers the interval.
	c, e, ok = disttime.IntersectReadings([]disttime.TimeReading{
		{C: base, E: time.Nanosecond},
		{C: base.Add(time.Nanosecond), E: time.Nanosecond},
	})
	if !ok {
		t.Fatal("readings sharing [base, base+1ns] reported inconsistent")
	}
	if lo, hi := c.Add(-e), c.Add(e); lo.After(base) || hi.Before(base.Add(time.Nanosecond)) {
		t.Errorf("<%v, %v> = [%v, %v] does not cover [base, base+1ns]", c.Sub(base), e, lo.Sub(base), hi.Sub(base))
	}
}

func TestIntersectReadingsInconsistent(t *testing.T) {
	base := time.Now()
	readings := []disttime.TimeReading{
		{C: base, E: time.Millisecond},
		{C: base.Add(time.Hour), E: time.Millisecond},
	}
	if _, _, ok := disttime.IntersectReadings(readings); ok {
		t.Error("inconsistent readings reported consistent")
	}
}

func TestIntersectReadingsEmpty(t *testing.T) {
	if _, _, ok := disttime.IntersectReadings(nil); ok {
		t.Error("empty readings reported consistent")
	}
}

// TestEndToEndSimulationFacade drives a complete simulated service through
// the public API only: a five-server mesh sampled every 30 s over five
// minutes, and an eight-server mesh over one hour of sparse syncs. Under
// IM neither may ever lose correctness.
func TestEndToEndSimulationFacade(t *testing.T) {
	for _, run := range []struct {
		servers                  int
		syncEvery, until, sample float64
	}{
		{servers: 5, syncEvery: 10, until: 300, sample: 30},
		{servers: 8, syncEvery: 60, until: 3600, sample: 300},
	} {
		specs := make([]disttime.ServerSpec, run.servers)
		for i := range specs {
			drift := float64(i-run.servers/2) * 1e-5
			specs[i] = disttime.ServerSpec{
				Delta:        math.Abs(drift)*1.2 + 1e-6,
				Drift:        drift,
				InitialError: 0.05,
				SyncEvery:    run.syncEvery,
			}
		}
		sim, err := disttime.NewSimulation(disttime.SimulationConfig{
			Seed:    1,
			Delay:   disttime.UniformDelay{Max: 0.01},
			Fn:      disttime.IM{},
			Servers: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := sim.RunSampled(run.until, run.sample)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.AllCorrect {
				t.Fatalf("%d servers: correctness lost at t=%v", run.servers, s.T)
			}
		}
	}
}

// TestEndToEndUDPFacade runs the real UDP path through the public API.
func TestEndToEndUDPFacade(t *testing.T) {
	src, err := disttime.NewSystemClock(5*time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := disttime.NewUDPServer("127.0.0.1:0", uint64(i), src)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr().String())
	}
	dc, err := disttime.NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	client := disttime.NewUDPClient(2*time.Second, dc)
	ms, err := client.QueryMany(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disttime.SyncIM(dc, ms); err != nil {
		t.Fatal(err)
	}
	now, e, synced := dc.Now()
	if !synced {
		t.Fatal("clock not synchronized")
	}
	if d := now.Sub(time.Now()); math.Abs(d.Seconds()) > e.Seconds()+0.1 {
		t.Errorf("clock off by %v with bound %v", d, e)
	}
}

// TestTraceFacade traces a Simulation with one server drifting far past
// its bound, so rounds reset, reject replies and run the Section 3
// recovery: every round must come out as one JSONL span, in time order,
// and the spans must tell the same story as the nodes' own counters.
func TestTraceFacade(t *testing.T) {
	const day = 86400.0
	sim, err := disttime.NewSimulation(disttime.SimulationConfig{
		Seed:  5,
		Delay: disttime.UniformDelay{Max: 0.02},
		Fn:    disttime.MM{},
		Servers: []disttime.ServerSpec{
			{Delta: 2.0 / day, Drift: 1.0 / day, InitialError: 0.5, SyncEvery: 60, Recovery: true},
			{Delta: 1.0 / day, Drift: 0.04, InitialError: 0.5, SyncEvery: 60, Recovery: true},
			{Delta: 2.0 / day, Drift: -1.0 / day, InitialError: 0.5, SyncEvery: 60},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tr := obs.NewTracer(&out)
	sim.Observe(nil, tr)
	sim.Run(3600)
	if tr.Spans() == 0 || tr.Err() != nil {
		t.Fatalf("spans = %d, err = %v: no sync rounds traced through the facade", tr.Spans(), tr.Err())
	}

	var spans, resets, rejecting, recovered uint64
	prev := -1.0
	dec := json.NewDecoder(&out)
	for dec.More() {
		var span struct {
			T         float64
			Node      int
			Rejected  []int
			Reset     bool
			Recovered bool
		}
		if err := dec.Decode(&span); err != nil {
			t.Fatal(err)
		}
		if span.T < prev || span.Node < 0 || span.Node >= len(sim.Nodes) {
			t.Fatalf("span %+v out of order (after t=%v) or from no node", span, prev)
		}
		prev = span.T
		spans++
		if span.Reset {
			resets++
		}
		if len(span.Rejected) > 0 {
			rejecting++
		}
		if span.Recovered {
			recovered++
		}
	}
	if spans != tr.Spans() {
		t.Errorf("%d JSONL spans for %d emitted", spans, tr.Spans())
	}
	if resets == 0 || rejecting == 0 {
		t.Errorf("%d resetting and %d rejecting rounds: the faulty server must cause both", resets, rejecting)
	}
	var want uint64
	for _, n := range sim.Nodes {
		want += uint64(n.Recoveries)
	}
	if recovered == 0 || recovered != want {
		t.Errorf("%d recovered rounds, node counters say %d", recovered, want)
	}
}

func TestPeerFacade(t *testing.T) {
	src, err := disttime.NewSystemClock(5*time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := disttime.NewUDPServer("127.0.0.1:0", 9, src)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	reports := make(chan disttime.SyncReport, 4)
	peer, err := disttime.NewPeer(disttime.PeerConfig{
		Addr: "127.0.0.1:0", ID: 1, Clock: peerClock(t),
		Peers:    []string{ref.Addr().String()},
		Interval: time.Minute, Timeout: 2 * time.Second,
		OnSync: func(r disttime.SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	select {
	case r := <-reports:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never synced")
	}
}

func TestMembershipFacade(t *testing.T) {
	// The simulated substrate: a leave/rejoin cycle produces join and
	// status-change events, and no live server is ever evicted.
	specs := make([]disttime.ServerSpec, 4)
	for i := range specs {
		specs[i] = disttime.ServerSpec{
			Delta: 2e-4, InitialError: 0.05, SyncEvery: 10,
		}
	}
	sim, err := disttime.NewSimulation(disttime.SimulationConfig{
		Seed:    11,
		Servers: specs,
		Members: &disttime.MemberConfig{GossipEvery: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rejoins, leaves := 0, 0
	sim.AddMemberChange(func(ev service.MemberEvent) {
		if ev.From == member.Left && ev.To == disttime.MemberAlive {
			rejoins++
		}
		if ev.To == member.Left {
			leaves++
		}
		if ev.FalseEviction {
			t.Errorf("false eviction: %v", ev)
		}
	})
	sim.LeaveAt(60, 1)
	sim.RejoinAt(120, 1)
	sim.Run(300)
	if leaves == 0 {
		t.Error("voluntary departure produced no Left observations")
	}
	if rejoins == 0 {
		t.Error("rejoin produced no left->alive observations")
	}

	// The UDP substrate: Seeds alone make a roster-backed peer whose
	// membership view is typed through the facade.
	p, err := disttime.NewPeer(disttime.PeerConfig{
		Addr: "127.0.0.1:0", ID: 1, Clock: peerClock(t),
		Seeds:      []string{"127.0.0.1:9"},
		Membership: disttime.MembershipConfig{Gossip: time.Hour},
		Interval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	members := p.Members()
	if len(members) < 2 {
		t.Fatalf("roster-backed peer knows %d members, want self + seed", len(members))
	}
	var st disttime.MemberStatus = members[0].Status
	if st != disttime.MemberAlive {
		t.Errorf("first member status = %v, want alive", st)
	}
}

func TestConsonanceFacade(t *testing.T) {
	specs := []disttime.ServerSpec{
		{Delta: 1e-5, Drift: 0.5e-5, InitialError: 0.05, SyncEvery: 30},
		{Delta: 1e-5, Drift: -0.5e-5, InitialError: 0.05, SyncEvery: 30},
		{Delta: 1e-6, Drift: 5e-5, InitialError: 0.05}, // invalid bound, never resets
	}
	sim, err := disttime.NewSimulation(disttime.SimulationConfig{
		Seed:    9,
		Delay:   disttime.UniformDelay{Max: 0.002},
		Fn:      disttime.MM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1800)
	// Section 5: observer i finds j dissonant when its estimate of their
	// separation rate exceeds delta_i + delta_j. Server 2 is the only one
	// two observers agree on.
	dissonant := make([]int, len(specs))
	for i, n := range sim.Nodes {
		for j := range sim.Nodes {
			if e := n.Rates.Estimate(j); j != i && e.Valid && !e.ConsonantWith(specs[i].Delta, specs[j].Delta) {
				dissonant[j]++
			}
		}
	}
	if dissonant[0] >= 2 || dissonant[1] >= 2 || dissonant[2] != 2 {
		t.Errorf("dissonance counts = %v, want server 2 alone at 2", dissonant)
	}
}

// peerClock is a fresh disciplined clock that trusts its oscillator to
// 100 ppm, for a facade Peer to serve and steer.
func peerClock(t *testing.T) *disttime.DisciplinedClock {
	t.Helper()
	dc, err := disttime.NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}
