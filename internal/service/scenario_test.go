package service

import (
	"fmt"
	"testing"

	"disttime/internal/core"
	"disttime/internal/simnet"
)

// at runs fn at virtual time t, through the simulator's call table.
func at(svc *Service, t float64, fn func()) {
	svc.Sim.AfterCall(t-svc.Sim.Now(), func(any) { fn() }, nil)
}

// partitionAt schedules a network partition at virtual time t. Each group
// lists server indices (not network ids); servers absent from every group
// form one implicit extra group, as in simnet.Partition.
func partitionAt(svc *Service, t float64, groups ...[]int) {
	netGroups := make([][]simnet.NodeID, len(groups))
	for g, members := range groups {
		for _, idx := range members {
			netGroups[g] = append(netGroups[g], svc.Nodes[idx].NetID)
		}
	}
	at(svc, t, func() { svc.Net.Partition(netGroups...) })
}

// newScenarioService builds a small default-config service for scenario
// tests.
func newScenarioService(t *testing.T, n int, tau float64) *Service {
	t.Helper()
	svc, err := New(Config{Seed: 11, Servers: correctSpecs(n, tau)})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestPartitionAtSplitsAndHeals: during a partition, replies cross only
// within a group; after the heal, cross-group traffic resumes. The detail
// hook counts replies per pass, which measures reachability directly.
func TestPartitionAtSplitsAndHeals(t *testing.T) {
	svc := newScenarioService(t, 4, 10)
	// maxReplies[node] tracks the largest single-pass reply count seen in
	// each window; a 2|2 split caps it at 1, a healed mesh allows 3.
	var maxDuring, maxAfter [4]int
	svc.AddSyncDetail(func(o core.Pass) {
		switch {
		case o.T >= 20 && o.T < 60:
			if o.Replies > maxDuring[o.Node] {
				maxDuring[o.Node] = o.Replies
			}
		case o.T >= 70:
			if o.Replies > maxAfter[o.Node] {
				maxAfter[o.Node] = o.Replies
			}
		}
	})
	partitionAt(svc, 20, []int{0, 1}, []int{2, 3})
	at(svc, 60, func() { svc.Net.Heal() })
	svc.Run(120)
	for i := 0; i < 4; i++ {
		if maxDuring[i] != 1 {
			t.Errorf("server %d saw %d replies in a pass during the 2|2 split, want exactly 1",
				i, maxDuring[i])
		}
		if maxAfter[i] != 3 {
			t.Errorf("server %d saw %d replies in a pass after healing, want 3", i, maxAfter[i])
		}
	}
}

// TestAddSyncDetailChains: a second observer runs after the first on
// every pass; neither replaces the other.
func TestAddSyncDetailChains(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	var order []int
	svc.AddSyncDetail(func(core.Pass) { order = append(order, 1) })
	svc.AddSyncDetail(func(core.Pass) { order = append(order, 2) })
	svc.Run(30)
	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("observers called %d times in total, want a positive even count", len(order))
	}
	for i, who := range order {
		if who != i%2+1 {
			t.Fatalf("call %d went to observer %d, want installation order: %v", i, who, order)
		}
	}
}

// TestOnSyncDetailObservation: each record's counts agree with its
// result: the clock was set exactly when the rule reset it or recovery
// adopted, and no pass accepts more replies than it ran over.
func TestOnSyncDetailObservation(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	var obs []core.Pass
	svc.AddSyncDetail(func(o core.Pass) { obs = append(obs, o) })
	svc.Run(40)
	if len(obs) == 0 {
		t.Fatal("no detailed observations")
	}
	for _, o := range obs {
		if o.Node < 0 || o.Node >= 3 {
			t.Fatalf("observation names server %d", o.Node)
		}
		if set := o.Result.Reset || o.Recovered; o.Sets < 0 || (o.Sets > 0) != set {
			t.Fatalf("%d clock sets, reset %v, recovered %v: %+v", o.Sets, o.Result.Reset, o.Recovered, o)
		}
		if o.Replies < o.Result.Accepted {
			t.Fatalf("accepted %d of %d replies: %+v", o.Result.Accepted, o.Replies, o)
		}
	}
}

// TestPassRecordsOutliveTheirRound: an observer keeps three rounds'
// records of one server, and each still reads after the run as it did
// when its round ended, its After the server's reading then. A record
// that shared a buffer the node reuses (its reply scratch) would read
// the last round's values instead.
func TestPassRecordsOutliveTheirRound(t *testing.T) {
	svc := newScenarioService(t, 4, 10)
	var kept []core.Pass
	var printed []string
	svc.AddSyncDetail(func(p core.Pass) {
		if p.Node != 0 || len(kept) == 3 {
			return
		}
		if now := svc.Nodes[0].Server.Reading(p.T); p.After != now {
			t.Errorf("t=%v: After %+v, the server reads %+v", p.T, p.After, now)
		}
		kept = append(kept, p)
		printed = append(printed, fmt.Sprintf("%+v", p))
	})
	svc.Run(60)
	if len(kept) != 3 {
		t.Fatalf("kept %d records, want 3", len(kept))
	}
	for i, p := range kept {
		if got := fmt.Sprintf("%+v", p); got != printed[i] {
			t.Errorf("round %d's record changed after its round:\n now  %s\n then %s", i, got, printed[i])
		}
		if i > 0 && !(p.T > kept[i-1].T) {
			t.Errorf("round %d at t=%v, round %d at t=%v: want each round its own", i, p.T, i-1, kept[i-1].T)
		}
	}
}

// TestCrashRestart: a crashed server answers nothing and runs no rounds;
// after restart it synchronizes again. Crash and Restart are idempotent.
func TestCrashRestart(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	rounds := make([]int, 3)
	svc.AddSyncDetail(func(o core.Pass) { rounds[o.Node]++ })
	at(svc, 15, func() { svc.Crash(2) })
	at(svc, 16, func() { svc.Crash(2) }) // double crash: no-op
	at(svc, 17, func() {
		if !svc.Crashed(2) {
			t.Error("server 2 not reported crashed")
		}
		svc.Restart(1) // restart of a running server: no-op
	})
	svc.Run(55)
	duringCrash := rounds[2]
	if rounds[0] == 0 || rounds[1] == 0 {
		t.Fatal("healthy servers did not synchronize")
	}
	at(svc, 60, func() { svc.Restart(2) })
	svc.Run(120)
	if svc.Crashed(2) {
		t.Error("server 2 still reported crashed after restart")
	}
	if rounds[2] <= duringCrash {
		t.Errorf("server 2 ran no rounds after restart (%d before, %d after)", duringCrash, rounds[2])
	}
	// The outage must not have broken correctness: every interval still
	// contains true time (the clock drifted, it was not corrupted).
	now := svc.Sim.Now()
	for i, node := range svc.Nodes {
		if !node.Server.Interval(now).Contains(now) {
			t.Errorf("server %d incorrect after crash/restart cycle: %v at %v",
				i, node.Server.Interval(now), now)
		}
	}
}

// TestCrashDropsInFlightRound: a server crashed in the middle of its
// collection window discards that round entirely — the pass must not run
// on restart with stale replies.
func TestCrashDropsInFlightRound(t *testing.T) {
	svc, err := New(Config{Seed: 5, Servers: correctSpecs(3, 10), CollectFor: 2})
	if err != nil {
		t.Fatal(err)
	}
	var passes []core.Pass
	svc.AddSyncDetail(func(o core.Pass) {
		if o.Node == 0 {
			passes = append(passes, o)
		}
	})
	// Rounds start at 10, 20, ... with a 2 s collection window; crash
	// server 0 mid-window and restart it before the window would close.
	at(svc, 10.5, func() { svc.Crash(0) })
	at(svc, 11, func() { svc.Restart(0) })
	svc.Run(15)
	for _, o := range passes {
		if o.T > 10 && o.T < 13 {
			t.Errorf("server 0 completed a pass at t=%v from a round its crash should have killed", o.T)
		}
	}
}

// TestSupersededRoundRunsNoPass: a node has one open round. Under a
// period shorter than the collection window each tick finds the last
// round still open and supersedes it, so that round's close runs no
// pass, whatever replies it gathered. Server 0 starts a round every 1 s
// over a 1.5 s window and completes none; server 1, every 2 s, completes
// each of its ten.
func TestSupersededRoundRunsNoPass(t *testing.T) {
	specs := correctSpecs(3, 1)
	specs[1].SyncEvery = 2
	specs[2].SyncEvery = 0
	svc, err := New(Config{Seed: 7, Servers: specs, CollectFor: 1.5, noStagger: true})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(19.9)
	if got := svc.Nodes[0].Syncs; got != 0 {
		t.Errorf("server 0 ran %d passes from rounds its next tick superseded, want 0", got)
	}
	if got := svc.Nodes[1].Syncs; got != 10 {
		t.Errorf("server 1 ran %d passes from rounds nothing superseded, want 10", got)
	}
}

// TestOneTickerPerNode: a node runs at most one sync ticker, armed only
// while it is up. After a crash before the first phase and a restart, and
// after a leave, a crash, a rejoin while crashed and a restart, node 1
// runs one pass a period: 10 over the 10 periods after it comes back.
func TestOneTickerPerNode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		script func(*Service)
	}{
		{"crash before the first phase", Config{Seed: 3, Servers: correctSpecs(3, 10), noStagger: true},
			func(svc *Service) {
				svc.Crash(1) // the first phase is pending at t = 0
				svc.Run(25)
				svc.Restart(1)
			}},
		{"leave, crash, rejoin, restart", memberTestConfig(4, 5),
			func(svc *Service) {
				svc.Run(20)
				svc.Leave(1)
				svc.Run(25)
				svc.Crash(1)
				svc.Run(30)
				svc.Rejoin(1)
				svc.Run(35)
				svc.Restart(1)
			}},
	} {
		svc, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.script(svc)
		before := svc.Nodes[1].Syncs
		svc.Run(svc.Sim.Now() + 10*10 + 5)
		if got := svc.Nodes[1].Syncs - before; got != 10 {
			t.Errorf("%s: node 1 ran %d passes over the 10 periods after it came back, want 10", tc.name, got)
		}
	}
}
