package service

import (
	"testing"

	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/simnet"
)

// TestHLCPropagates pins the always-on HLC wiring: after a service runs
// sync rounds, every node's hybrid logical clock has advanced (requests
// and replies carried timestamps), each clock's node ID matches its
// server, and no clock's wall runs wildly ahead of the service's latest
// bound — the piggyback keeps clocks coupled.
func TestHLCPropagates(t *testing.T) {
	svc, err := New(Config{
		Seed:    1,
		Delay:   simnet.Uniform{Max: 0.01},
		Fn:      core.MM{},
		Servers: correctSpecs(5, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(120)
	for i, n := range svc.Nodes {
		last := n.HLCLast()
		if last == (hlc.Timestamp{}) {
			t.Errorf("server %d: HLC never advanced", i)
		}
		if last.Node != uint32(i) {
			t.Errorf("server %d: HLC node = %d", i, last.Node)
		}
		// While clocks are contained and messages flow, walls track the
		// service's C+E bounds; the logical counter stays small because
		// walls advance between events.
		if last.Logical > 64 {
			t.Errorf("server %d: logical counter %d", i, last.Logical)
		}
	}
	// A stamped event on one node dominates everything that node observed.
	now := svc.Sim.Now()
	before := svc.Nodes[0].HLCLast()
	ts := svc.Nodes[0].HLCNow(now)
	if !before.Before(ts) {
		t.Errorf("HLCNow %v does not advance past HLCLast %v", ts, before)
	}
	if svc.Nodes[0].HLCLast() != ts {
		t.Errorf("HLCLast %v does not reflect issued %v", svc.Nodes[0].HLCLast(), ts)
	}
}

// TestHLCHappensBeforeAcrossService checks the cross-node invariant on
// the simulated substrate: a timestamp issued on server A, once A's
// state has reached server B over sync traffic, is strictly before any
// later stamp B issues.
func TestHLCHappensBeforeAcrossService(t *testing.T) {
	svc, err := New(Config{
		Seed:    7,
		Delay:   simnet.Uniform{Max: 0.01},
		Fn:      core.IM{},
		Servers: correctSpecs(4, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(60)
	a := svc.Nodes[0].HLCNow(svc.Sim.Now())
	// Run long enough for at least one full sync round (period 10s plus
	// the collect window): A's timestamp reaches every peer via the
	// request broadcast or A's replies.
	svc.Run(svc.Sim.Now() + 25)
	for i, n := range svc.Nodes {
		b := n.HLCNow(svc.Sim.Now())
		if !a.Before(b) {
			t.Errorf("server %d stamp %v not after propagated %v", i, b, a)
		}
	}
}
