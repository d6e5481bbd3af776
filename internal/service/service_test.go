package service

import (
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/simnet"
)

// correctSpecs returns n healthy server specs with valid bounds, small
// initial offsets, and the given sync function.
func correctSpecs(n int, tau float64) []ServerSpec {
	specs := make([]ServerSpec, n)
	drifts := []float64{1e-5, -2e-5, 3e-5, -4e-5, 5e-5, -6e-5, 7e-5, -8e-5}
	for i := range specs {
		d := drifts[i%len(drifts)]
		specs[i] = ServerSpec{
			Delta:         math.Abs(d) * 1.5,
			Drift:         d,
			InitialOffset: float64(i%3-1) * 0.01,
			InitialError:  0.05,
			SyncEvery:     tau,
		}
	}
	return specs
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "no servers", cfg: Config{}, wantErr: true},
		{
			name: "ok",
			cfg:  Config{Servers: correctSpecs(2, 10)},
		},
		{
			name: "initially incorrect",
			cfg: Config{Servers: []ServerSpec{
				{Delta: 1e-5, InitialOffset: 1, InitialError: 0.5},
			}},
			wantErr: true,
		},
		{
			name: "bad topology",
			cfg: Config{
				Topology: Topology(99),
				Servers:  correctSpecs(2, 10),
			},
			wantErr: true,
		},
		{
			name: "negative delta",
			cfg: Config{Servers: []ServerSpec{
				{Delta: -1, SyncEvery: 10},
			}},
			wantErr: true,
		},
		{
			name:    "NaN slew rate",
			cfg:     Config{Servers: []ServerSpec{{Delta: 1e-5, SlewRate: math.NaN()}}},
			wantErr: true,
		},
		{
			name:    "negative slew rate",
			cfg:     Config{Servers: []ServerSpec{{Delta: 1e-5, SlewRate: -0.01}}},
			wantErr: true,
		},
		{
			name:    "slew rate above 1",
			cfg:     Config{Servers: []ServerSpec{{Delta: 1e-5, SlewRate: 1.5}}},
			wantErr: true,
		},
		{name: "NaN sync period", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, SyncEvery: math.NaN()}}}, wantErr: true},
		{name: "infinite sync period", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, SyncEvery: math.Inf(1)}}}, wantErr: true},
		{name: "NaN drift", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, Drift: math.NaN()}}}, wantErr: true},
		{name: "infinite drift", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, Drift: math.Inf(-1)}}}, wantErr: true},
		{name: "NaN offset", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, InitialOffset: math.NaN(), InitialError: 1}}}, wantErr: true},
		{name: "infinite offset", cfg: Config{Servers: []ServerSpec{{Delta: 1e-5, InitialOffset: math.Inf(1), InitialError: math.Inf(1)}}}, wantErr: true},
		{name: "NaN collection window", cfg: Config{CollectFor: math.NaN(), Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "infinite collection window", cfg: Config{CollectFor: math.Inf(1), Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "NaN loss", cfg: Config{Loss: math.NaN(), Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "negative delay", cfg: Config{Delay: core.Band{Min: -0.01, Max: 0.05}, Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "NaN delay", cfg: Config{Delay: core.Band{Max: math.NaN()}, Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "delay max below min", cfg: Config{Delay: core.Band{Min: 0.05, Max: 0.01}, Servers: correctSpecs(2, 10)}, wantErr: true},
		{name: "infinite delay", cfg: Config{Delay: core.Band{Max: math.Inf(1)}, Servers: correctSpecs(2, 10)}, wantErr: true},
		{
			name:    "infinite gossip period",
			cfg:     Config{Servers: correctSpecs(2, 10), Members: &MemberConfig{GossipEvery: math.Inf(1)}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMMServiceStaysCorrectAndConsistent(t *testing.T) {
	svc, err := New(Config{
		Seed:    1,
		Delay:   core.Band{Max: 0.01},
		Fn:      core.MM{},
		Servers: correctSpecs(5, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := svc.RunSampled(600, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("t=%v: correctness lost: %+v", s.T, s)
		}
		if !s.Consistent {
			t.Fatalf("t=%v: consistency lost", s.T)
		}
		if s.Groups != 1 {
			t.Fatalf("t=%v: %d consistency groups", s.T, s.Groups)
		}
	}
	// Servers actually synchronized.
	totalResets := 0
	for _, n := range svc.Nodes {
		if n.Syncs == 0 {
			t.Errorf("server %d never synced", n.Server.ID())
		}
		totalResets += n.Resets
	}
	if totalResets == 0 {
		t.Error("no server ever reset")
	}
}

func TestIMServiceStaysCorrect(t *testing.T) {
	svc, err := New(Config{
		Seed:    2,
		Delay:   core.Band{Max: 0.01},
		Fn:      core.IM{},
		Servers: correctSpecs(6, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := svc.RunSampled(600, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("t=%v: correctness lost under IM", s.T)
		}
	}
}

// TestTheorem2ErrorBound: under MM in a full mesh, every server's error is
// bounded by E_M + xi + delta_i(tau + 2 xi) (checked with the paper's
// slightly looser (1+2delta) xi form plus float slack).
func TestTheorem2ErrorBound(t *testing.T) {
	const tau = 10.0
	svc, err := New(Config{
		Seed:    3,
		Delay:   core.Band{Max: 0.01},
		Fn:      core.MM{},
		Servers: correctSpecs(6, tau),
	})
	if err != nil {
		t.Fatal(err)
	}
	xi := svc.Net.Xi()
	samples, err := svc.RunSampled(1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.T < 3*tau {
			continue // let every server complete a few rounds first
		}
		for i, e := range s.E {
			delta := svc.Nodes[i].Spec.Delta
			// The collection window delays the reset by up to the window
			// itself, so charge one extra xi of slack beyond the theorem's
			// instantaneous-application form.
			bound := s.MinError + (1+2*delta)*xi + delta*(tau+2*xi) + xi
			if e > bound {
				t.Fatalf("t=%v server %d: E=%v exceeds Theorem 2 bound %v (E_M=%v)",
					s.T, i, e, bound, s.MinError)
			}
		}
	}
}

// TestTheorem7IMAsynchronism: under IM the asynchronism stays within
// xi + (delta_i + delta_j) tau (plus the collection-window slack).
func TestTheorem7IMAsynchronism(t *testing.T) {
	const tau = 10.0
	svc, err := New(Config{
		Seed:    4,
		Delay:   core.Band{Max: 0.01},
		Fn:      core.IM{},
		Servers: correctSpecs(6, tau),
	})
	if err != nil {
		t.Fatal(err)
	}
	xi := svc.Net.Xi()
	samples, err := svc.RunSampled(1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	maxDelta := 0.0
	for _, sp := range svc.Nodes {
		if sp.Spec.Delta > maxDelta {
			maxDelta = sp.Spec.Delta
		}
	}
	bound := xi + 2*maxDelta*tau + xi // extra xi: collection window
	for _, s := range samples {
		if s.T < 3*tau {
			continue
		}
		if s.MaxAsync > bound {
			t.Fatalf("t=%v: asynchronism %v exceeds Theorem 7 bound %v", s.T, s.MaxAsync, bound)
		}
	}
}

// TestIMTighterThanMM reproduces the Section 4 observation: under IM the
// error grows much more slowly than under MM for the same service. The
// gain appears in Theorem 8's regime: claimed bounds close to the actual
// drifts, with real drifts spanning the claimed range in both directions,
// so the fastest clock's trailing edge and the slowest clock's leading
// edge pin the intersection near the true time.
func TestIMTighterThanMM(t *testing.T) {
	drifts := []float64{1e-5, -2e-5, 3e-5, -4e-5, 5e-5, -6e-5, 7e-5, -8e-5}
	run := func(fn core.SyncFunc) float64 {
		specs := make([]ServerSpec, len(drifts))
		for i, d := range drifts {
			specs[i] = ServerSpec{
				Delta:        1.02 * math.Abs(d), // tight, valid bound
				Drift:        d,
				InitialError: 0.05,
				SyncEvery:    60,
			}
		}
		svc, err := New(Config{
			Seed:    5,
			Delay:   core.Band{Max: 0.0005},
			Fn:      fn,
			Servers: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := svc.RunSampled(86400, 3600)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.AllCorrect {
				t.Fatalf("%s: correctness lost at t=%v", fn.Name(), s.T)
			}
		}
		final := samples[len(samples)-1]
		mean := 0.0
		for _, e := range final.E {
			mean += e
		}
		return mean / float64(len(final.E))
	}
	mm := run(core.MM{})
	im := run(core.IM{})
	if im >= mm {
		t.Errorf("IM mean error %v not smaller than MM's %v", im, mm)
	}
	if mm/im < 3 {
		t.Errorf("IM improvement only %.2fx; expected a clear gap (paper saw ~10x)", mm/im)
	}
}

// TestRecoveryFaultyDrift reproduces the Section 3 experiment: a two
// server network where one clock is four percent fast with a claimed
// bound of one second a day; each reset finds the pair inconsistent and
// recovers from a third server on another network.
func TestRecoveryFaultyDrift(t *testing.T) {
	const day = 86400.0
	specs := []ServerSpec{
		{ // S0: healthy, modest clock.
			Delta:        2.0 / day,
			Drift:        1.0 / day,
			InitialError: 0.5,
			SyncEvery:    600,
			Recovery:     true,
		},
		{ // S1: claims one second a day, actually four percent fast.
			Delta:        1.0 / day,
			Drift:        0.04,
			InitialError: 0.5,
			SyncEvery:    600,
			Recovery:     true,
		},
		{ // S2: the reference server on "another network".
			Delta:        2.0 / day,
			Drift:        -1.0 / day,
			InitialError: 0.5,
			SyncEvery:    600,
		},
	}
	svc, err := New(Config{
		Seed:     6,
		Delay:    core.Band{Max: 0.05},
		Topology: Custom,
		Fn:       core.MM{},
		Servers:  specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// S0-S1 share a network; S2 is reachable from both (via internet).
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if err := svc.Link(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := svc.RunSampled(6*3600, 600)
	if err != nil {
		t.Fatal(err)
	}

	faulty := svc.Nodes[1]
	if faulty.Server.Inconsistencies() == 0 {
		t.Error("faulty server never observed inconsistency")
	}
	if faulty.Recoveries == 0 {
		t.Error("faulty server never recovered")
	}
	// The healthy server must stay correct throughout.
	for _, s := range samples {
		if math.Abs(s.Offset[0]) > s.E[0] {
			t.Fatalf("healthy server incorrect at t=%v: offset %v error %v",
				s.T, s.Offset[0], s.E[0])
		}
	}
	// The faulty clock is pulled back repeatedly: despite gaining ~144s/h,
	// its final offset is far below the unchecked 4% drift.
	final := samples[len(samples)-1]
	unchecked := 0.04 * final.T
	if math.Abs(final.Offset[1]) > unchecked/10 {
		t.Errorf("faulty server offset %v; recovery should keep it well below %v",
			final.Offset[1], unchecked)
	}
}

// TestRecoveryDisabledFaultyDriftsAway is the control: without recovery
// the faulty server's clock runs off by hours.
func TestRecoveryDisabledFaultyDriftsAway(t *testing.T) {
	const day = 86400.0
	specs := []ServerSpec{
		{Delta: 2.0 / day, Drift: 0, InitialError: 0.5, SyncEvery: 600},
		{Delta: 1.0 / day, Drift: 0.04, InitialError: 0.5, SyncEvery: 600},
	}
	svc, err := New(Config{
		Seed:    7,
		Delay:   core.Band{Max: 0.05},
		Fn:      core.MM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(6 * 3600)
	s := svc.Snapshot()
	if s.Offset[1] < 100 {
		t.Errorf("faulty offset %v; expected large unchecked drift", s.Offset[1])
	}
	if s.Consistent {
		t.Error("service should have become inconsistent")
	}
	if s.Groups < 2 {
		t.Errorf("expected >= 2 consistency groups, got %d", s.Groups)
	}
}

func TestNoSyncServersDriftApart(t *testing.T) {
	specs := []ServerSpec{
		{Delta: 2e-4, Drift: 1e-4, InitialError: 0.01},
		{Delta: 2e-4, Drift: -1e-4, InitialError: 0.01},
	}
	svc, err := New(Config{Seed: 8, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(10000)
	s := svc.Snapshot()
	// Separation rate 2e-4 over 10000 s = 2 s.
	if s.MaxAsync < 1.9 {
		t.Errorf("MaxAsync = %v, want ~2", s.MaxAsync)
	}
	// Errors grew correspondingly and remained correct bounds.
	if !s.AllCorrect {
		t.Error("drifting but honest servers must remain correct")
	}
	for _, n := range svc.Nodes {
		if n.Resets != 0 {
			t.Error("server without SyncEvery reset its clock")
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Sample {
		svc, err := New(Config{
			Seed:    99,
			Delay:   core.Band{Max: 0.02},
			Fn:      core.IM{},
			Servers: correctSpecs(5, 7),
			Loss:    0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Run(500)
		return svc.Snapshot()
	}
	a, b := run(), run()
	for i := range a.C {
		if a.C[i] != b.C[i] || a.E[i] != b.E[i] {
			t.Fatalf("same seed diverged: %+v vs %+v", a, b)
		}
	}
}

func TestLossToleratedByMM(t *testing.T) {
	svc, err := New(Config{
		Seed:    10,
		Delay:   core.Band{Max: 0.01},
		Loss:    0.3,
		Fn:      core.MM{},
		Servers: correctSpecs(5, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Net.Observe(reg)
	samples, err := svc.RunSampled(600, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("correctness lost under loss at t=%v", s.T)
		}
	}
	if reg.Counter("simnet_messages_lost_total").Value() == 0 {
		t.Error("no messages were lost; loss model inactive?")
	}
}

func TestTopologies(t *testing.T) {
	for _, topo := range []Topology{FullMesh, Ring, Line, Star} {
		svc, err := New(Config{
			Seed:     11,
			Delay:    core.Band{Max: 0.01},
			Topology: topo,
			Fn:       core.MM{},
			Servers:  correctSpecs(5, 10),
		})
		if err != nil {
			t.Fatalf("topology %d: %v", topo, err)
		}
		samples, err := svc.RunSampled(300, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.AllCorrect {
				t.Fatalf("topology %d: correctness lost", topo)
			}
		}
	}
}

func TestCustomTopologyUnlinkedNodeNeverSyncs(t *testing.T) {
	svc, err := New(Config{
		Seed:     12,
		Topology: Custom,
		Servers:  correctSpecs(3, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Link(0, 1); err != nil {
		t.Fatal(err)
	}
	svc.Run(100)
	if svc.Nodes[2].Syncs != 0 {
		t.Error("isolated server completed a sync round")
	}
	if svc.Nodes[0].Syncs == 0 {
		t.Error("linked server never synced")
	}
}

func TestRunSampledValidation(t *testing.T) {
	svc, err := New(Config{Seed: 1, Servers: correctSpecs(2, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunSampled(10, 0); err == nil {
		t.Error("zero sample period should error")
	}
}

// TestStopHaltsSyncing: silencing every node stops its ticks where they
// stand. Each pending tick is dropped when it fires and counted as
// cancelled, no round starts, and the rounds in flight die with their
// incarnation.
func TestStopHaltsSyncing(t *testing.T) {
	svc, err := New(Config{Seed: 14, Servers: correctSpecs(3, 5), noStagger: true, CollectFor: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Sim.Observe(reg)
	svc.Run(21) // rounds started at 20 are in flight
	for _, n := range svc.Nodes {
		n.silence()
	}
	before, steps := svc.Nodes[0].Syncs, svc.Sim.Steps()
	svc.Run(100)
	if got := svc.Nodes[0].Syncs; got != before {
		t.Errorf("syncs continued after the stop: %d -> %d", before, got)
	}
	// The rounds' messages have all arrived by 21: what runs after the
	// stop is their three closes, at 22, which sync nobody.
	if got := reg.Counter("sim_events_cancelled_total").Value(); got != 3 {
		t.Errorf("%d events dropped as stale, want the 3 pending ticks", got)
	}
	if ran := svc.Sim.Steps() - steps; ran != 3 {
		t.Errorf("%d events ran after the stop, want the 3 rounds' closes", ran)
	}
}

func TestRateTrackerPopulatedByProtocol(t *testing.T) {
	svc, err := New(Config{
		Seed:    15,
		Delay:   core.Band{Max: 0.005},
		Servers: correctSpecs(3, 5),
		// MM with valid bounds rarely resets after converging; rates
		// accumulate between resets.
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(300)
	anyValid := false
	for _, n := range svc.Nodes {
		for j := range svc.Nodes {
			if j == n.Server.ID() {
				continue
			}
			if n.Rates.Estimate(j).Valid {
				anyValid = true
			}
		}
	}
	if !anyValid {
		t.Error("no rate estimates accumulated")
	}
}

func TestSnapshotMinErrorServer(t *testing.T) {
	specs := []ServerSpec{
		{Delta: 1e-5, InitialError: 0.5},
		{Delta: 1e-5, InitialError: 0.1},
		{Delta: 1e-5, InitialError: 0.9},
	}
	svc, err := New(Config{Seed: 16, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	s := svc.Snapshot()
	if s.MinErrorServer != 1 {
		t.Errorf("MinErrorServer = %d, want 1", s.MinErrorServer)
	}
	if s.MinError != 0.1 {
		t.Errorf("MinError = %v, want 0.1", s.MinError)
	}
}

func TestOnSyncHook(t *testing.T) {
	svc, err := New(Config{Seed: 20, Servers: correctSpecs(3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var nodesSeen []int
	svc.AddSyncDetail(func(o core.Pass) {
		calls++
		nodesSeen = append(nodesSeen, o.Node)
		if o.T <= 0 {
			t.Errorf("hook at non-positive time %v", o.T)
		}
	})
	svc.Run(100)
	if calls == 0 {
		t.Fatal("observer never fired")
	}
	seen := make(map[int]bool)
	for _, n := range nodesSeen {
		seen[n] = true
	}
	if len(seen) != 3 {
		t.Errorf("hook saw nodes %v, want all 3", nodesSeen)
	}
}

func TestPartitionSplitsIntoConsistencyGroups(t *testing.T) {
	// Partition a service into halves whose clocks drift apart; after
	// enough time the service is inconsistent across the cut, then heals.
	specs := []ServerSpec{
		{Delta: 2e-4, Drift: 1.5e-4, InitialError: 0.01, SyncEvery: 10},
		{Delta: 2e-4, Drift: 1.4e-4, InitialError: 0.01, SyncEvery: 10},
		{Delta: 2e-4, Drift: -1.5e-4, InitialError: 0.01, SyncEvery: 10},
		{Delta: 2e-4, Drift: -1.4e-4, InitialError: 0.01, SyncEvery: 10},
	}
	// Claimed bounds are valid, so intervals stay correct and overlap;
	// to force observable divergence the partitioned halves must hold
	// invalid bounds. Use claimed bounds far below actual drift.
	for i := range specs {
		specs[i].Delta = 1e-6
	}
	svc, err := New(Config{
		Seed:    21,
		Delay:   core.Band{Max: 0.005},
		Fn:      core.MM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	partitionAt(svc, 50, []int{0, 1}, []int{2, 3})
	at(svc, 100000, func() { svc.Net.Heal() })
	svc.Run(20000)
	s := svc.Snapshot()
	if s.Consistent {
		t.Error("partitioned halves with invalid bounds should be inconsistent")
	}
	if s.Groups < 2 {
		t.Errorf("Groups = %d, want >= 2", s.Groups)
	}
	// Within each half the clocks stayed far closer than across the cut
	// (they tracked each other while consistent; with invalid bounds the
	// pair eventually goes inconsistent too and separates slowly).
	intra := math.Max(math.Abs(s.C[0]-s.C[1]), math.Abs(s.C[2]-s.C[3]))
	cross := math.Abs(s.C[0] - s.C[2])
	if intra > 0.5 {
		t.Errorf("intra-half divergence %v too large", intra)
	}
	if cross < 2 {
		t.Errorf("halves did not diverge across the cut: %v", cross)
	}
	if cross < 5*intra {
		t.Errorf("cross divergence %v not dominating intra %v", cross, intra)
	}
}

func TestSelectIMServiceToleratesFalseticker(t *testing.T) {
	// A service with one wildly wrong clock: plain IM stalls (no resets
	// once inconsistent), SelectIM keeps the honest majority synchronized.
	build := func(fn core.SyncFunc) *Service {
		specs := correctSpecs(5, 10)
		specs[4] = ServerSpec{
			Delta:        1e-6, // claims near-perfect
			Drift:        0.01, // actually 1% fast
			InitialError: 0.05,
			SyncEvery:    10,
		}
		svc, err := New(Config{
			Seed:    23,
			Delay:   core.Band{Max: 0.005},
			Fn:      fn,
			Servers: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	// Plain IM: once the falseticker is inconsistent, rule IM-2 refuses
	// to act, so servers stop resetting and errors grow without bound.
	plain := build(core.IM{})
	plain.Run(3600)
	plainResets := 0
	for _, n := range plain.Nodes[:4] {
		plainResets += n.Resets
	}

	sel := build(core.SelectIM{})
	sel.Run(3600)
	s := sel.Snapshot()
	selResets := 0
	for _, n := range sel.Nodes[:4] {
		selResets += n.Resets
	}
	if selResets <= plainResets {
		t.Errorf("SelectIM resets (%d) not above stalled IM (%d)", selResets, plainResets)
	}
	// The honest servers stay near the true time: the falseticker can
	// pull a sync by at most its per-period excursion (~0.1 s), not
	// accumulate. (It cannot be excluded entirely: right after its own
	// reset its tight-but-wrong interval is consistent with the others —
	// the Figure 3 vulnerability the paper describes for intersection
	// functions.)
	for i := 0; i < 4; i++ {
		if math.Abs(s.Offset[i]) > 0.3 {
			t.Errorf("honest server %d pulled too far under SelectIM: offset %v",
				i, s.Offset[i])
		}
	}
	// And they stay mutually synchronized.
	maxHonest := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if d := math.Abs(s.C[i] - s.C[j]); d > maxHonest {
				maxHonest = d
			}
		}
	}
	if maxHonest > 0.5 {
		t.Errorf("honest servers diverged under SelectIM: %v", maxHonest)
	}
}

func TestSlewedServiceStaysCorrect(t *testing.T) {
	// Servers disciplining their clocks by slewing (never stepping) must
	// remain correct: the pending correction is charged to the error.
	specs := correctSpecs(5, 10)
	for i := range specs {
		specs[i].SlewRate = 0.01 // 1% adjustment rate
	}
	svc, err := New(Config{
		Seed:    30,
		Delay:   core.Band{Max: 0.005},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := svc.RunSampled(600, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("slewed service lost correctness at t=%v", s.T)
		}
	}
	// Verify monotonicity directly on one server's clock across a dense
	// re-sampling of the same run: clocks never step backward under
	// slewing.
	svc2, err := New(Config{
		Seed:    30,
		Delay:   core.Band{Max: 0.005},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for step := 1; step <= 1200; step++ {
		at := float64(step) * 0.5
		svc2.Run(at)
		v := svc2.Nodes[0].Server.Read(at)
		if v < prev {
			t.Fatalf("slewed clock went backward at t=%v: %v < %v", at, v, prev)
		}
		prev = v
	}
}

func TestAsymmetricLinksStayCorrect(t *testing.T) {
	// Requests travel fast, replies crawl (or vice versa): the requester
	// can only measure the sum, which is exactly the paper's model. The
	// algorithms must stay correct as long as xi bounds the round trip.
	svc, err := New(Config{
		Seed:     41,
		Topology: Custom,
		Fn:       core.IM{},
		Servers:  correctSpecs(4, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	link := simnet.LinkConfig{
		Delay:        core.Band{Max: 0.002},
		ReverseDelay: &core.Band{Min: 0.02, Max: 0.08},
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := svc.Net.Connect(svc.Nodes[i].NetID, svc.Nodes[j].NetID, link); err != nil {
				t.Fatal(err)
			}
		}
	}
	samples, err := svc.RunSampled(600, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("asymmetric-link service lost correctness at t=%v", s.T)
		}
	}
}

func TestCollectForOverride(t *testing.T) {
	svc, err := New(Config{
		Seed:       42,
		CollectFor: 0.5,
		Servers:    correctSpecs(2, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.CollectWindow(); got != 0.5 {
		t.Errorf("CollectWindow = %v, want override 0.5", got)
	}
}

func TestNoStaggerLockstep(t *testing.T) {
	svc, err := New(Config{
		Seed:      43,
		noStagger: true,
		Servers:   correctSpecs(3, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	// All first rounds fire at exactly t=0 in lockstep.
	firstSyncs := make(map[int]float64)
	svc.AddSyncDetail(func(o core.Pass) {
		if _, seen := firstSyncs[o.Node]; !seen {
			firstSyncs[o.Node] = o.T
		}
	})
	svc.Run(50)
	if len(firstSyncs) != 3 {
		t.Fatalf("first syncs = %v", firstSyncs)
	}
	window := svc.CollectWindow()
	for node, at := range firstSyncs {
		if math.Abs(at-window) > 1e-9 {
			t.Errorf("node %d first sync at %v, want lockstep at window %v", node, at, window)
		}
	}
}

func TestRateFilterExcludesPersistentOffender(t *testing.T) {
	// A bad upstream: a server that never synchronizes, claims a tight
	// bound, and races beyond it. While interval-consistent it drags the
	// honest servers (the Figure 3 hazard); the Section 5 rate filter
	// sees its oscillator-level separation rate and excludes it long
	// before the intervals give it away. (An offender that resets with
	// the pack is invisible to value-rate consonance — that blind spot is
	// measured by ablation A7.) An honest server whose wide bound explains
	// the upstream's rate cannot veto it, but the upstream's own-drift
	// constraint misses the other neighbors' majority, so the vote drops
	// it there too.
	run := func(honestDrifts []float64, seed uint64, rateFilter bool) (frac float64, filtered int) {
		specs := make([]ServerSpec, 5)
		for i, d := range honestDrifts {
			specs[i] = ServerSpec{
				Delta:        1.5 * math.Abs(d),
				Drift:        d,
				InitialError: 0.05,
				SyncEvery:    30,
				RateFilter:   rateFilter,
			}
		}
		specs[4] = ServerSpec{
			Delta:        1e-5,
			Drift:        8e-5,
			InitialError: 0.05,
			RateFilter:   rateFilter,
			// Pure upstream: serves, never resets.
		}
		svc, err := New(Config{
			Seed:    seed,
			Delay:   core.Band{Max: 0.002},
			Fn:      core.IM{DropInconsistent: true},
			Servers: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := svc.RunSampled(7200, 30)
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for _, s := range samples {
			if s.T < 600 {
				continue // let the filter accumulate span
			}
			for i := 0; i < 4; i++ {
				total++
				if math.Abs(s.Offset[i]) <= s.E[i] {
					correct++
				}
			}
		}
		for _, n := range svc.Nodes[:4] {
			filtered += n.RateFiltered
		}
		return float64(correct) / float64(total), filtered
	}

	for _, tc := range []struct {
		name   string
		drifts []float64
	}{
		{"tight", []float64{0.3e-5, -0.5e-5, 0.7e-5, -1e-5}},
		{"one wide +4e-5", []float64{0.3e-5, -0.5e-5, 4e-5, -1e-5}},
		{"one wide -4e-5", []float64{0.3e-5, -0.5e-5, -4e-5, -1e-5}},
		{"two wide", []float64{0.3e-5, 6e-5, 4e-5, -1e-5}},
	} {
		for _, seed := range []uint64{50, 51, 52} {
			fracP, filtered := run(tc.drifts, seed, true)
			if fracP < 0.95 {
				t.Errorf("%s, seed %d: rate-filtered service only %.0f%% correct", tc.name, seed, fracP*100)
			}
			if filtered == 0 {
				t.Errorf("%s, seed %d: filter never excluded the offender", tc.name, seed)
			}
		}
	}
	if fracU, _ := run([]float64{0.3e-5, -0.5e-5, 0.7e-5, -1e-5}, 50, false); fracU >= 0.95 {
		t.Errorf("unfiltered service %.0f%% correct: the upstream should drag it", fracU*100)
	}
}

func TestRateFilterLeavesHonestServiceAlone(t *testing.T) {
	// With valid bounds everywhere the filter must not exclude anyone.
	specs := correctSpecs(5, 10)
	for i := range specs {
		specs[i].RateFilter = true
	}
	svc, err := New(Config{
		Seed:    51,
		Delay:   core.Band{Max: 0.002},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := svc.RunSampled(3600, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("honest filtered service lost correctness at t=%v", s.T)
		}
	}
	for _, n := range svc.Nodes {
		if n.RateFiltered != 0 {
			t.Errorf("server %d filtered %d honest replies", n.Server.ID(), n.RateFiltered)
		}
	}
}

// dissonantPairs is the Section 5 diagnosis of a running service: the
// ordered pairs (observer i, neighbor j) whose valid rate estimate
// violates |rate| <= delta_i + delta_j.
func dissonantPairs(svc *Service) [][2]int {
	var out [][2]int
	for i, node := range svc.Nodes {
		for j := range svc.Nodes {
			if e := node.Rates.Estimate(j); j != i && e.Valid && !e.ConsonantWith(node.Spec.Delta, svc.Nodes[j].Spec.Delta) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func TestConsonanceReportFlagsOffender(t *testing.T) {
	// A non-resetting upstream racing beyond its claimed bound: the
	// service-wide Section 5 diagnosis must point at it and only it.
	honestDrifts := []float64{0.3e-5, -0.5e-5, 0.7e-5, -1e-5}
	specs := make([]ServerSpec, 5)
	for i, d := range honestDrifts {
		specs[i] = ServerSpec{
			Delta: 1.5 * math.Abs(d), Drift: d, InitialError: 0.05, SyncEvery: 30,
		}
	}
	specs[4] = ServerSpec{Delta: 1e-5, Drift: 8e-5, InitialError: 0.05}
	svc, err := New(Config{
		Seed:    60,
		Delay:   core.Band{Max: 0.002},
		Fn:      core.MM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(3600)
	pairs := dissonantPairs(svc)
	observers := 0
	for _, p := range pairs {
		if p[1] != 4 {
			t.Errorf("honest server %d flagged by %d", p[1], p[0])
		}
		observers++
	}
	if observers < 2 {
		t.Errorf("offender flagged by %d observers, want at least 2; pairs %v", observers, pairs)
	}
	if !svc.Nodes[0].Rates.Estimate(4).Valid {
		t.Error("observer 0 has no estimate of the offender")
	}
}

func TestConsonanceReportCleanService(t *testing.T) {
	svc, err := New(Config{
		Seed:    61,
		Delay:   core.Band{Max: 0.002},
		Fn:      core.IM{},
		Servers: correctSpecs(4, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(1200)
	if pairs := dissonantPairs(svc); len(pairs) != 0 {
		t.Errorf("clean service flagged pairs %v", pairs)
	}
}

// TestScaleSoak runs a large service for several simulated hours: 48
// servers, full mesh (1128 links), IM. Correctness must hold at every
// sample and the run must be deterministic. Skipped under -short.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	run := func() ([]Sample, int) {
		specs := make([]ServerSpec, 48)
		for i := range specs {
			mag := (1 + float64(i%12)) * 1e-5
			drift := mag
			if i%2 == 1 {
				drift = -mag
			}
			specs[i] = ServerSpec{
				Delta:         1.1 * mag,
				Drift:         drift,
				InitialOffset: float64(i%5-2) * 0.005,
				InitialError:  0.05,
				SyncEvery:     60,
			}
		}
		svc, err := New(Config{
			Seed:    70,
			Delay:   core.Band{Max: 0.01},
			Fn:      core.IM{},
			Servers: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := svc.RunSampled(4*3600, 300)
		if err != nil {
			t.Fatal(err)
		}
		resets := 0
		for _, n := range svc.Nodes {
			resets += n.Resets
		}
		return samples, resets
	}
	samples, resets := run()
	for _, s := range samples {
		if !s.AllCorrect {
			t.Fatalf("t=%v: correctness lost at scale", s.T)
		}
		if !s.Consistent {
			t.Fatalf("t=%v: consistency lost at scale", s.T)
		}
	}
	if resets == 0 {
		t.Fatal("no resets in a 4h run")
	}
	// Determinism at scale: an identical run produces identical samples.
	again, resets2 := run()
	if resets != resets2 {
		t.Fatalf("reset counts diverged: %d vs %d", resets, resets2)
	}
	for i := range samples {
		for j := range samples[i].C {
			if samples[i].C[j] != again[i].C[j] {
				t.Fatalf("sample %d server %d diverged", i, j)
			}
		}
	}
}

func TestAdaptiveDeltaHealsFaultyServer(t *testing.T) {
	// The Section 3 faulty server (4% fast, claims 1 s/day) with the
	// thesis's delta maintenance: it learns its real drift from its
	// neighbors' rates, raises its bound, repairs its error bookkeeping,
	// and rejoins the service as a correct (if poor) citizen — no
	// third-server recovery needed.
	const day = 86400.0
	specs := []ServerSpec{
		{Delta: 2.0 / day, Drift: 1.0 / day, InitialError: 0.5, SyncEvery: 60},
		{
			Delta: 1.0 / day, Drift: 0.04, InitialError: 0.5, SyncEvery: 60,
			AdaptiveDelta: true,
		},
		{Delta: 2.0 / day, Drift: -1.0 / day, InitialError: 0.5, SyncEvery: 60},
	}
	svc, err := New(Config{
		Seed:    80,
		Delay:   core.Band{Max: 0.02},
		Fn:      core.MM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(7200)
	faulty := svc.Nodes[1]
	if faulty.DeltaRaises == 0 {
		t.Fatal("faulty server never adapted its bound")
	}
	if got := faulty.Server.Delta(); got < 0.03 {
		t.Errorf("adapted delta = %v, want >= ~0.04 (the real drift)", got)
	}
	// With an honest bound the server is correct again and the service
	// consistent.
	s := svc.Snapshot()
	if math.Abs(s.Offset[1]) > s.E[1] {
		t.Errorf("adapted server still incorrect: offset %v, E %v", s.Offset[1], s.E[1])
	}
	if !s.AllCorrect {
		t.Error("service not all-correct after adaptation")
	}
	if !s.Consistent {
		t.Error("service not consistent after adaptation")
	}
}

func TestAdaptiveDeltaLeavesValidBoundsAlone(t *testing.T) {
	specs := correctSpecs(4, 30)
	for i := range specs {
		specs[i].AdaptiveDelta = true
	}
	svc, err := New(Config{
		Seed:    81,
		Delay:   core.Band{Max: 0.002},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(3600)
	for i, n := range svc.Nodes {
		if n.DeltaRaises != 0 {
			t.Errorf("server %d with a valid bound raised delta %d times (to %v)",
				i, n.DeltaRaises, n.Server.Delta())
		}
	}
}

// TestRoundAllocs holds the reply pool (newReply, putReply) to its
// contract: once a four-server mesh is warm, a full round of every
// server (four broadcasts, twelve requests answered, twelve replies
// collected, four passes of rule MM-2) allocates only the four request
// values boxed into their message payloads. Every reply payload comes
// from the free list and goes back to it.
func TestRoundAllocs(t *testing.T) {
	const tau = 10
	// Under IM every request is also a reading its responder takes
	// (core.Node.Hear), and that path allocates nothing either.
	for _, fn := range []core.SyncFunc{core.MM{}, core.IM{}} {
		svc, err := New(Config{Seed: 1, Fn: fn, Servers: correctSpecs(4, tau)})
		if err != nil {
			t.Fatal(err)
		}
		until := 20.0 * tau
		svc.Run(until)
		allocs := testing.AllocsPerRun(20, func() {
			until += tau
			svc.Run(until)
		})
		if want := float64(len(svc.Nodes)); allocs > want {
			t.Errorf("%s: a warm round of the mesh allocates %v times, want at most %v (one boxed request per server)", fn.Name(), allocs, want)
		}
	}
}

// TestDisciplineSteersIMOnly holds the switch: under IM every server
// steers its clock (core.Slew), its error grows well under its claimed
// bound over the second half of a day with every interval containing
// true time, no step falls back,
// and the observed run counts the fallbacks and the aging rates; under
// MM every server ages at its claimed bound, unsteered.
func TestDisciplineSteersIMOnly(t *testing.T) {
	for _, fn := range []core.SyncFunc{core.IM{}, core.MM{}} {
		svc, err := New(Config{Seed: 5, Fn: fn, Delay: core.Band{Max: 0.01}, Servers: correctSpecs(8, 60)})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		svc.Observe(reg, nil)
		samples, err := svc.RunSampled(86400, 60)
		if err != nil {
			t.Fatal(err)
		}
		var rise, claimed float64
		for j, n := range svc.Nodes {
			claimed += n.Spec.Delta
			var up, span float64
			for k := len(samples) / 2; k < len(samples); k++ {
				if d := samples[k].E[j] - samples[k-1].E[j]; d > 0 {
					up += d
					span += samples[k].T - samples[k-1].T
				}
			}
			rise += up / span
			r := n.Server.Rate()
			if _, im := fn.(core.IM); r.Steered != im || (!im && r.Age != n.Spec.Delta) {
				t.Errorf("%s: server %d rate %+v", fn.Name(), j, r)
			}
		}
		for _, s := range samples {
			if !s.AllCorrect {
				t.Fatalf("%s: an interval missed true time at t=%v", fn.Name(), s.T)
			}
		}
		if f := reg.Counter("service_rate_fallbacks_total").Value(); f != 0 {
			t.Errorf("%s: %d rate fallbacks", fn.Name(), f)
		}
		if n := reg.LogHistogram("service_aging_rate").Count(); n != reg.Counter("service_sync_rounds_total").Value() {
			t.Errorf("%s: %d aging rates for %d rounds", fn.Name(), n, reg.Counter("service_sync_rounds_total").Value())
		}
		// 0.115 of the claimed bounds when written: the drift bounds
		// narrow only as far as the shared 50 ms initial error lets E fall.
		if _, im := fn.(core.IM); im && rise/claimed > 0.25 {
			t.Errorf("%s: error grows at %.3g of the claimed bounds", fn.Name(), rise/claimed)
		}
	}
}

// TestDisciplineUnderInvalidUpstream pins the rate discipline's cost
// against an invalid-bound upstream (the Figure 3 hazard) with no rate
// filter. The discipline's induction assumes every adopted reading
// contains true time, and the upstream's do not: the honest servers
// adopt intersections it drags, bound their drift from them, and age at
// a residual that never covers the drag. Unsteered they are as wrong but
// still age at their claimed bounds. So the steer leaves each honest
// server wrong with an error under a tenth of its offset, where the
// unsteered servers keep over a sixth of it; with the Section 5 rate
// filter on, the honest servers stay correct and steered (DESIGN.md §3,
// "No clique can talk itself down").
func TestDisciplineUnderInvalidUpstream(t *testing.T) {
	// run returns the least and the greatest honest E/|C-t| at the end,
	// the share of honest samples correct from 600 s, and whether every
	// honest server ends steered.
	run := func(seed uint64, rateFilter, steer bool) (lo, hi, frac float64, steered bool) {
		specs := make([]ServerSpec, 5)
		for i, d := range []float64{0.3e-5, -0.5e-5, 0.7e-5, -1e-5} {
			specs[i] = ServerSpec{Delta: 1.5 * math.Abs(d), Drift: d, InitialError: 0.05, SyncEvery: 30, RateFilter: rateFilter}
		}
		// Pure upstream: serves, never resets, races beyond its bound.
		specs[4] = ServerSpec{Delta: 1e-5, Drift: 8e-5, InitialError: 0.05, RateFilter: rateFilter}
		svc, err := New(Config{Seed: seed, Delay: core.Band{Max: 0.002}, Fn: core.IM{DropInconsistent: true}, Servers: specs})
		if err != nil {
			t.Fatal(err)
		}
		if !steer {
			for _, n := range svc.Nodes {
				n.Discipline = nil
			}
		}
		samples, err := svc.RunSampled(7200, 30)
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for _, s := range samples[20:] { // from 600 s, as above
			for i := range 4 {
				total++
				if math.Abs(s.Offset[i]) <= s.E[i] {
					correct++
				}
			}
		}
		last := samples[len(samples)-1]
		lo, hi, steered = math.Inf(1), 0, true
		for i, n := range svc.Nodes[:4] {
			r := last.E[i] / math.Abs(last.Offset[i])
			lo, hi = min(lo, r), max(hi, r)
			steered = steered && n.Server.Rate().Steered
		}
		return lo, hi, float64(correct) / float64(total), steered
	}
	for _, seed := range []uint64{50, 51, 52} {
		// E/|C-t| when written: at most 0.057 steered, at least 0.199
		// unsteered.
		if _, hi, frac, steered := run(seed, false, true); hi >= 0.1 || frac >= 0.05 || !steered {
			t.Errorf("seed %d, steered: E/|C-t| up to %.3g, %.0f%% correct, steered %v; want under 0.1 and the upstream dragging it", seed, hi, frac*100, steered)
		}
		if lo, _, _, _ := run(seed, false, false); lo <= 1.0/6 {
			t.Errorf("seed %d, unsteered: E/|C-t| down to %.3g, want over 1/6", seed, lo)
		}
		if _, _, frac, steered := run(seed, true, true); frac < 0.95 || !steered {
			t.Errorf("seed %d, rate-filtered: %.0f%% correct, steered %v; want at least 95%%, steered", seed, frac*100, steered)
		}
	}
}
