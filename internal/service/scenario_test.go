package service

import "testing"

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
// within a group; after HealAt, cross-group traffic resumes. The detail
// hook counts replies per pass, which measures reachability directly.
func TestPartitionAtSplitsAndHeals(t *testing.T) {
	svc := newScenarioService(t, 4, 10)
	// maxReplies[node] tracks the largest single-pass reply count seen in
	// each window; a 2|2 split caps it at 1, a healed mesh allows 3.
	var maxDuring, maxAfter [4]int
	svc.AddSyncDetail(func(o SyncObservation) {
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
	if err := svc.PartitionAt(20, []int{0, 1}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	svc.HealAt(60)
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

// TestPartitionAtRejectsBadIndex: a group naming a server that does not
// exist is an error before anything is scheduled.
func TestPartitionAtRejectsBadIndex(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	if err := svc.PartitionAt(5, []int{0, 7}); err == nil {
		t.Error("partition with out-of-range member accepted")
	}
	if err := svc.PartitionAt(5, []int{-1}); err == nil {
		t.Error("partition with negative member accepted")
	}
}

// TestAddSyncDetailChains: a second observer runs after the first on
// every pass; neither replaces the other.
func TestAddSyncDetailChains(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	var order []int
	svc.AddSyncDetail(func(SyncObservation) { order = append(order, 1) })
	svc.AddSyncDetail(func(SyncObservation) { order = append(order, 2) })
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

// TestOnSyncDetailObservation: the detailed observer reports consistent
// bracketing counters.
func TestOnSyncDetailObservation(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	var obs []SyncObservation
	svc.AddSyncDetail(func(o SyncObservation) { obs = append(obs, o) })
	svc.Run(40)
	if len(obs) == 0 {
		t.Fatal("no detailed observations")
	}
	for _, o := range obs {
		if o.Node < 0 || o.Node >= 3 {
			t.Fatalf("observation names server %d", o.Node)
		}
		if o.Resets < o.ResetsBefore || o.Recoveries < o.RecovBefore {
			t.Fatalf("counters ran backwards: %+v", o)
		}
		if o.Resets > o.ResetsBefore && !o.Res.Reset {
			t.Fatalf("reset counter advanced without a reset result: %+v", o)
		}
		if o.Replies < o.Res.Accepted {
			t.Fatalf("accepted %d of %d replies: %+v", o.Res.Accepted, o.Replies, o)
		}
	}
}

// TestCrashRestart: a crashed server answers nothing and runs no rounds;
// after restart it synchronizes again. Crash and Restart are idempotent.
func TestCrashRestart(t *testing.T) {
	svc := newScenarioService(t, 3, 10)
	rounds := make([]int, 3)
	svc.AddSyncDetail(func(o SyncObservation) { rounds[o.Node]++ })
	svc.CrashAt(15, 2)
	svc.Sim.At(16, func() { svc.Crash(2) }) // double crash: no-op
	svc.Sim.At(17, func() {
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
	svc.RestartAt(60, 2)
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
		if !node.Server.Interval(now).Grow(1e-9).Contains(now) {
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
	var passes []SyncObservation
	svc.AddSyncDetail(func(o SyncObservation) {
		if o.Node == 0 {
			passes = append(passes, o)
		}
	})
	// Rounds start at 10, 20, ... with a 2 s collection window; crash
	// server 0 mid-window and restart it before the window would close.
	svc.CrashAt(10.5, 0)
	svc.RestartAt(11, 0)
	svc.Run(15)
	for _, o := range passes {
		if o.T > 10 && o.T < 13 {
			t.Errorf("server 0 completed a pass at t=%v from a round its crash should have killed", o.T)
		}
	}
}
