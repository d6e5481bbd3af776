package service

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"disttime/internal/member"
	"disttime/internal/obs"
)

// memberTestConfig returns a service config with n synchronized servers
// and membership enabled at a fast gossip period.
func memberTestConfig(n int, seed uint64) Config {
	servers := make([]ServerSpec, n)
	for i := range servers {
		servers[i] = ServerSpec{
			Delta:         1e-4,
			Drift:         (float64(i%3) - 1) * 5e-5,
			InitialOffset: float64(i) * 0.001,
			InitialError:  0.05,
			SyncEvery:     10,
		}
	}
	return Config{
		Seed:    seed,
		Servers: servers,
		Members: &MemberConfig{GossipEvery: 2},
	}
}

// fullRoster reports whether every server's roster sees every other
// server Alive.
func fullRoster(svc *Service) bool {
	n := len(svc.Nodes)
	for i := 0; i < n; i++ {
		if svc.Nodes[i].member.Roster().AliveCount() != n {
			return false
		}
	}
	return true
}

// evictAfter returns server i's eviction deadline on its local clock,
// from the detector configuration initMembership gives it.
func evictAfter(svc *Service, i int) float64 {
	maxDelta := 0.0
	for _, spec := range svc.cfg.Servers {
		maxDelta = math.Max(maxDelta, spec.Delta)
	}
	return member.DetectorConfig{
		Period:      svc.memberCfg.GossipEvery,
		LocalDelta:  svc.cfg.Servers[i].Delta,
		RemoteDelta: maxDelta,
		Xi:          svc.Net.Xi(),
	}.EvictAfter()
}

// rosterEntry returns what server i's roster records about server id.
func rosterEntry(svc *Service, i, id int) (member.Entry[int], bool) {
	for _, e := range svc.Nodes[i].member.Roster().Members() {
		if e.ID == id {
			return e, true
		}
	}
	return member.Entry[int]{}, false
}

// TestMembershipConvergesFromSeeds checks the join protocol: rosters
// start knowing only the owner and its topology neighbors, yet gossip
// spreads the full membership to every server — including on a Line,
// where most pairs never exchange a message directly.
func TestMembershipConvergesFromSeeds(t *testing.T) {
	for _, topo := range []Topology{FullMesh, Line, Ring} {
		cfg := memberTestConfig(5, 7)
		cfg.Topology = topo
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.Run(120)
		if !fullRoster(svc) {
			for i := range svc.Nodes {
				t.Logf("topology %v roster %d: %+v", topo, i, svc.Nodes[i].member.Roster().Members())
			}
			t.Fatalf("topology %v: rosters did not converge to full membership", topo)
		}
	}
}

// TestMembershipEvictsCrashedServer checks detector completeness at the
// service level: a crashed server is evicted from every survivor's
// roster within the detector's bounded window, and no survivor is ever
// falsely evicted.
func TestMembershipEvictsCrashedServer(t *testing.T) {
	cfg := memberTestConfig(4, 11)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var falseEvictions []MemberEvent
	svc.AddMemberChange(func(e MemberEvent) {
		if e.FalseEviction {
			falseEvictions = append(falseEvictions, e)
		}
	})
	svc.Run(60) // let rosters converge
	if !fullRoster(svc) {
		t.Fatal("rosters did not converge before the crash")
	}
	svc.Sim.At(60.5, func() { svc.Crash(2) })
	// The eviction deadline on the observer's local clock, plus slack
	// for the gossip tick quantization.
	bound := evictAfter(svc, 0) + 2*svc.memberCfg.GossipEvery
	svc.Run(60.5 + bound + 1)
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		e, ok := rosterEntry(svc, i, 2)
		if !ok || e.Status != member.Evicted {
			t.Fatalf("server %d did not evict crashed server 2 within %v: %+v", i, bound, e)
		}
	}
	if len(falseEvictions) > 0 {
		t.Fatalf("false evictions: %v", falseEvictions)
	}

	// Restart: the new incarnation re-joins every roster.
	svc.Sim.At(svc.Sim.Now()+1, func() { svc.Restart(2) })
	svc.Run(svc.Sim.Now() + 60)
	if !fullRoster(svc) {
		for i := range svc.Nodes {
			t.Logf("roster %d: %+v", i, svc.Nodes[i].member.Roster().Members())
		}
		t.Fatal("restarted server was not re-admitted")
	}
	if len(falseEvictions) > 0 {
		t.Fatalf("false evictions after restart: %v", falseEvictions)
	}
}

// TestMembershipChurnLeaveRejoin checks voluntary churn: a departure is
// recorded as Left (not a failure) by every survivor, and the rejoin's
// fresh incarnation supersedes it everywhere.
func TestMembershipChurnLeaveRejoin(t *testing.T) {
	cfg := memberTestConfig(4, 13)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.LeaveAt(40, 1)
	svc.RejoinAt(100, 1)
	svc.Run(70)
	if !svc.Nodes[1].departed {
		t.Fatal("server 1 did not depart")
	}
	leftSeen := 0
	for i := 0; i < 4; i++ {
		if i == 1 {
			continue
		}
		if e, ok := rosterEntry(svc, i, 1); ok && e.Status == member.Left {
			leftSeen++
		}
	}
	if leftSeen == 0 {
		t.Fatal("no survivor recorded the voluntary departure as Left")
	}
	svc.Run(170)
	if svc.Nodes[1].departed {
		t.Fatal("server 1 still departed after Rejoin")
	}
	if !fullRoster(svc) {
		for i := range svc.Nodes {
			t.Logf("roster %d: %+v", i, svc.Nodes[i].member.Roster().Members())
		}
		t.Fatal("rejoined server was not re-admitted everywhere")
	}
	// The rejoined incarnation must carry a bumped generation.
	if e, _ := rosterEntry(svc, 0, 1); e.Gen < 2 {
		t.Fatalf("rejoin did not bump generation: %+v", e)
	}
}

// TestMembershipGossipConvergesAfterPartition is the anti-entropy
// convergence property on a partitioned-then-healed network: during the
// partition the two sides' rosters diverge (each side suspects or
// evicts the other), and after healing gossip reconciles every roster
// back to full agreement — the fresher advertisements supersede the
// partition-era accusations.
func TestMembershipGossipConvergesAfterPartition(t *testing.T) {
	cfg := memberTestConfig(6, 17)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partitionAt(svc, 50, []int{0, 1, 2}, []int{3, 4, 5})
	svc.Run(50)
	if !fullRoster(svc) {
		t.Fatal("rosters did not converge before the partition")
	}
	evict := evictAfter(svc, 0)
	healAt := 50 + evict + 3*svc.memberCfg.GossipEvery
	svc.Sim.At(healAt, func() { svc.Net.Heal() })
	svc.Run(healAt)
	// During the partition each side must have demoted the other.
	demoted := 0
	for _, far := range []int{3, 4, 5} {
		if e, ok := rosterEntry(svc, 0, far); ok && e.Status != member.Alive {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("partition left server 0's roster fully intact; detector never fired")
	}
	// After healing, gossip must reconcile every roster.
	svc.Run(healAt + 60)
	if !fullRoster(svc) {
		for i := range svc.Nodes {
			t.Logf("roster %d: %+v", i, svc.Nodes[i].member.Roster().Members())
		}
		t.Fatal("rosters did not re-converge after healing")
	}
}

// TestMembershipTimelineDeterministic checks the reproducibility
// contract: two services built from the same seed produce byte-identical
// membership timelines through churn and crashes.
func TestMembershipTimelineDeterministic(t *testing.T) {
	timeline := func() string {
		cfg := memberTestConfig(5, 23)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		svc.AddMemberChange(func(e MemberEvent) {
			fmt.Fprintln(&b, e.String())
		})
		svc.LeaveAt(30, 4)
		svc.Sim.At(45, func() { svc.Crash(1) })
		svc.RejoinAt(90, 4)
		svc.Sim.At(120, func() { svc.Restart(1) })
		svc.Run(200)
		return b.String()
	}
	a, b := timeline(), timeline()
	if a != b {
		t.Fatalf("seeded membership timelines differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("timeline empty: no membership events observed")
	}
}

// TestMembershipSelectionPollsBestRanked checks that roster-driven sync
// rounds reach the service: every server still synchronizes (rounds
// happen, replies arrive) when polling is selection-driven rather than
// broadcast.
func TestMembershipSelectionPollsBestRanked(t *testing.T) {
	cfg := memberTestConfig(5, 29)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	for i, n := range svc.Nodes {
		if n.Syncs == 0 {
			t.Fatalf("server %d never synchronized under roster-driven polling", i)
		}
	}
	s := svc.Snapshot()
	if !s.AllCorrect {
		t.Fatalf("service lost correctness under roster-driven polling: %+v", s)
	}
}

// TestMembershipObserveMetrics checks the obs wiring: gossip traffic,
// roster size, and eviction counters are registered and move.
func TestMembershipObserveMetrics(t *testing.T) {
	cfg := memberTestConfig(4, 31)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Observe(reg, nil)
	svc.Sim.At(40, func() { svc.Crash(3) })
	svc.Run(40 + evictAfter(svc, 0) + 3*svc.memberCfg.GossipEvery)
	if v := reg.Counter("member_gossip_messages_total").Value(); v == 0 {
		t.Fatal("no gossip messages counted")
	}
	if v := reg.Counter("member_evictions_total").Value(); v == 0 {
		t.Fatal("no evictions counted after a crash")
	}
	if v := reg.Counter("member_false_evictions_total").Value(); v != 0 {
		t.Fatalf("false evictions counted: %d", v)
	}
	if v := reg.Gauge("member_alive_servers").Value(); !(v >= 1 && v <= 4) {
		t.Fatalf("alive gauge out of range: %v", v)
	}
}
