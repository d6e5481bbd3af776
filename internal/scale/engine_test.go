package scale

import (
	"math"
	"runtime"
	"testing"

	"disttime/internal/service"
	"disttime/internal/simnet"
)

// testConfig is a small stratified service: 8 regions of two clusters.
func testConfig(seed uint64) Config {
	return Config{
		Topo:         Topology{Regions: 8, Clusters: 2, Members: 4},
		Seed:         seed,
		Tau:          30,
		Delta:        1e-4,
		DriftMax:     0.99e-4,
		InitialError: 0.05,
		Member:       Band{Min: 0.0002, Max: 0.002},
		Uplink:       Band{Min: 0.002, Max: 0.01},
		Backbone:     Band{Min: 0.02, Max: 0.08},
		Rule:         RuleIM,
	}
}

func runFingerprint(t *testing.T, cfg Config, until float64) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Run(until)
	if e.Steps() == 0 {
		t.Fatal("engine executed no events")
	}
	return e.Fingerprint()
}

// TestDeterminismSeedSensitivity checks the fingerprint actually depends
// on the seed.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a := runFingerprint(t, testConfig(1), 300)
	b := runFingerprint(t, testConfig(2), 300)
	if a == b {
		t.Fatalf("different seeds produced identical fingerprint %s", a)
	}
}

// TestGoldenFingerprints pins the final state of one seeded run.
// The rule functions in core keep their floating-point operation order; a
// digest that moves means a rule's arithmetic changed, which is a change
// of behaviour to justify and re-pin, never a refactoring. The second row
// sets Shards to 2, as cmd/bench does: the field is inert, so the run is
// the same.
func TestGoldenFingerprints(t *testing.T) {
	bench := testConfig(42)
	bench.Shards = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"im", testConfig(42), "1cb58ead2666f145"},
		{"im, Shards 2", bench, "1cb58ead2666f145"},
	} {
		if got := runFingerprint(t, tc.cfg, 1800); got != tc.want {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestCorrectnessHonestRun checks Theorem 5 at scale: in a run with
// valid drift bounds every node's true offset stays inside its reported
// error at every second, so within a second of every round's close.
func TestCorrectnessHonestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"im", testConfig(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ts := 1.0; ts <= 1800; ts++ {
				e.Run(ts)
				if n := e.Uncontained(ts); n > 0 {
					t.Fatalf("t=%v: %d nodes have |C-t| > E", ts, n)
				}
			}
			if e.Resets() == 0 {
				t.Fatal("no clock resets")
			}
		})
	}
}

// TestRateDiscipline checks the discipline on both sides of its premise.
// In an honest IM run every node anchors and steers: no bound misses
// [-delta, delta], the nodes age at well under delta, and their clocks
// run nearer true time than their oscillators. With drifts three times a
// large delta, a node's own readings can bound its drift outside it (the
// gap between delta and the delta/(1-delta) a steered clock ages at): it
// falls back to delta unsteered, and the run goes on.
func TestRateDiscipline(t *testing.T) {
	honest := testConfig(9)
	e, err := New(honest)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1800)
	var age, rate, drift float64
	for i, an := range e.anchor {
		if !an.Anchored() {
			t.Fatalf("node %d never anchored", i)
		}
		age += e.age[i]
		rate += math.Abs(e.rate[i])
		drift += math.Abs(an.drift)
	}
	n := float64(e.n)
	if e.Fallbacks() != 0 || age/n > honest.Delta/2 || rate > drift/2 {
		t.Errorf("honest run: %d fallbacks, mean age %v (delta %v), mean |rate| %v against mean |drift| %v",
			e.Fallbacks(), age/n, honest.Delta, rate/n, drift/n)
	}

	past := testConfig(1)
	past.Delta, past.DriftMax = 0.1, 0.3
	e, err = New(past)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(6 * past.Tau)
	if e.Fallbacks() == 0 {
		t.Error("drifts three times delta: no rate bound missed [-delta, delta]")
	}
}

// TestNoLateReplies holds the round close to its bound: a round closes at
// the collect window, after every reply is in, so none arrives late.
func TestNoLateReplies(t *testing.T) {
	e, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1800)
	if n := e.Late(); n != 0 {
		t.Errorf("%d replies arrived after their round closed", n)
	}
	if e.Resets() == 0 {
		t.Error("no clock resets")
	}
}

// TestMinDelayCreditAtTheEdge holds reply's minimum-delay credit to the
// band's Min, not more. Node 1's clock reads its error, less a
// nanosecond, ahead of true time (creditAtTheEdge), so node 0's interval
// from node 1's reply has the true time a nanosecond inside its trailing
// edge. Crediting each leg more than d moves that edge past the true
// time by the excess.
func TestMinDelayCreditAtTheEdge(t *testing.T) {
	creditAtTheEdge(t, 1)
}

// TestMaxDelayCreditAtTheEdge holds reply's use of the band's Max to the
// band, not less. On a fixed link the reply's leg is d, so both the
// leg's cap, Max, and the credit of the round trip less Max on the
// request's leg are tight. Node 1's clock reads its error, less a
// nanosecond, ahead of true time and then behind it (creditAtTheEdge),
// so node 0's interval from node 1's reply has the true time a
// nanosecond inside its trailing edge and then its leading edge. Reading
// Max as less than d moves the trailing edge's credit, or the leading
// edge's cap, past the true time by the shortfall.
func TestMaxDelayCreditAtTheEdge(t *testing.T) {
	creditAtTheEdge(t, 1)
	creditAtTheEdge(t, -1)
}

// creditAtTheEdge runs two nodes on a fixed delay d (Min == Max) with
// exact clocks and zero drift bound. Node 1's clock reads sign times its
// error, less a nanosecond, ahead of true time, so the true time sits on
// its interval's lower edge (sign 1) or upper edge (sign -1); node 0's
// error is wide. Every interval must stay on the true time at every
// check, and node 0 must adopt node 1's reply.
func creditAtTheEdge(t *testing.T, sign float64) {
	t.Helper()
	const d, ej, tiny = 0.002, 0.01, 1e-9
	e, err := New(Config{
		Topo: Topology{Regions: 1, Clusters: 1, Members: 2},
		Seed: 1, Tau: 10, InitialError: 0.05,
		Member: Band{Min: d, Max: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.off[0], e.eps[0], e.resetRef[0] = 0, 0.05, 0
	e.off[1], e.eps[1], e.resetRef[1] = sign*(ej-tiny), ej, sign*(ej-tiny)
	for ts := 0.25; ts <= 3*e.cfg.Tau; ts += 0.25 {
		e.Run(ts)
		if n := e.Uncontained(ts); n > 0 {
			t.Fatalf("node 1 %+g of its error ahead, t=%v: %d nodes have |C-t| > E", sign, ts, n)
		}
	}
	if e.Inconsistencies() != 0 || !(e.eps[0] < 2*ej) {
		t.Fatalf("node 1 %+g of its error ahead: %d inconsistencies; node 0's error %v, want below %v: node 1's reply was not adopted",
			sign, e.Inconsistencies(), e.eps[0], 2*ej)
	}
}

// TestNoResetMidRound holds a request's interval to the round it arrives
// in. Two nodes on a fixed delay d run with exact clocks and a zero drift
// bound; each round stays open for most of its period. Node 1's clock
// reads its error, less a nanosecond, behind true time, so the true time
// sits on its interval's upper edge; node 0's error is wide. Whenever node
// 1's request reaches node 0 inside node 0's round, before node 1's reply,
// its interval must fold into the round: adopted there, it would move node
// 0's clock back by about node 1's error, and the reply's round trip,
// measured across the jump, would lose as much of its charge. The reply's
// interval would then miss the true time by that much, and so would the
// clock node 0 adopts at its close. Several seeds place the two rounds'
// phases; at least one must fold a request mid-round.
func TestNoResetMidRound(t *testing.T) {
	const d, ej, tiny = 0.002, 0.01, 1e-9
	folded := false
	for seed := uint64(1); seed <= 8; seed++ {
		e, err := New(Config{
			Topo: Topology{Regions: 1, Clusters: 1, Members: 2},
			Seed: seed, Tau: 0.005, InitialError: 0.05,
			Member: Band{Min: d, Max: d},
		})
		if err != nil {
			t.Fatal(err)
		}
		e.off[0], e.eps[0], e.resetRef[0] = 0, 0.05, 0
		e.off[1], e.eps[1], e.resetRef[1] = tiny-ej, ej, tiny-ej
		step := e.cfg.Tau / 10
		for k := 1; k <= 200; k++ {
			ts := float64(k) * step
			e.Run(ts)
			if n := e.Uncontained(ts); n > 0 {
				t.Fatalf("seed %d, t=%v: %d nodes have |C-t| > E", seed, ts, n)
			}
			folded = folded || e.used[0] > 1
		}
		if e.Inconsistencies() != 0 {
			t.Fatalf("seed %d: %d inconsistencies", seed, e.Inconsistencies())
		}
	}
	if !folded {
		t.Fatal("no request reached node 0 inside its round: the fold was not exercised")
	}
}

// TestCollectWindowIsService checks that a full mesh on one delay band
// closes its rounds when internal/service closes the same mesh's, to the
// bit.
func TestCollectWindowIsService(t *testing.T) {
	for _, band := range []Band{{0.0003, 0.0005}, {0.0001, 0.0005}, {0.0002, 0.002}, {0, 0.0123}} {
		const n = 5
		e, err := New(Config{
			Topo: Topology{Regions: 1, Clusters: 1, Members: n},
			Seed: 1, Tau: 60, Delta: 1e-4, InitialError: 0.05, Member: band,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]service.ServerSpec, n)
		for i := range specs {
			specs[i] = service.ServerSpec{Delta: 1e-4, InitialError: 0.05, SyncEvery: 60}
		}
		svc, err := service.New(service.Config{Seed: 1, Delay: simnet.Uniform{Min: band.Min, Max: band.Max}, Servers: specs})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.window, svc.CollectWindow(); got != want {
			t.Errorf("band %v: the engine closes at %v, service at %v", band, got, want)
		}
	}
}

// TestSyncBeatsNoSync checks the protocol does something: with
// synchronization the mean reported error stays far below the unsynced
// drift accumulation (InitialError + t*Delta).
func TestSyncBeatsNoSync(t *testing.T) {
	cfg := testConfig(11)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const until = 3600
	e.Run(until)
	unsynced := cfg.InitialError + until*cfg.Delta
	if got := e.MeanError(until); got > unsynced/2 {
		t.Fatalf("mean error %v after %vs, want well under unsynced %v", got, until, unsynced)
	}
	if sk := e.Skew(until); max(sk.Hub, sk.Gateway, sk.Member) > cfg.InitialError {
		t.Fatalf("a tier's mean |C-t| grew beyond the initial error %v: %+v", cfg.InitialError, sk)
	}
}

// TestSkewGradient checks the stratified skew sampler: all three tiers
// populated, and the hierarchy keeps every tier's skew bounded.
func TestSkewGradient(t *testing.T) {
	cfg := testConfig(23)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const until = 1800
	e.Run(until)
	sk := e.Skew(until)
	for name, v := range map[string]float64{"hub": sk.Hub, "gateway": sk.Gateway, "member": sk.Member} {
		if v <= 0 || v > cfg.InitialError {
			t.Fatalf("%s skew = %v, want in (0, %v]", name, v, cfg.InitialError)
		}
	}
}

// TestSkewByDistance pins SkewByDistance's pairs: with node i's clock
// reading i, a cluster peer is one member on, a region peer one cluster
// on and a service peer one region on; a distance the topology lacks
// reads zero.
func TestSkewByDistance(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		want DistanceSkew
	}{
		{Topology{Regions: 2, Clusters: 2, Members: 2}, DistanceSkew{Cluster: 1, Region: 2, Service: 4}},
		{Topology{Regions: 1, Clusters: 1, Members: 4}, DistanceSkew{Cluster: 1.5}},
	} {
		cfg := testConfig(1)
		cfg.Topo = tc.topo
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.off {
			e.off[i], e.rate[i] = float64(i), 0
		}
		if got := e.SkewByDistance(0); got != tc.want {
			t.Errorf("%+v: SkewByDistance = %+v, want %+v", tc.topo, got, tc.want)
		}
	}
}

// TestMeshTopology checks the 1x1xN degenerate hierarchy (the theorems'
// full mesh) runs and is reproducible.
func TestMeshTopology(t *testing.T) {
	mesh := Config{
		Topo: Topology{Regions: 1, Clusters: 1, Members: 16},
		Seed: 5, Tau: 60,
		Delta: 1e-4, DriftMax: 0.99e-4, InitialError: 0.05,
		Member: Band{Min: 0.0001, Max: 0.0005},
		Rule:   RuleIM,
	}
	if a, b := runFingerprint(t, mesh, 1200), runFingerprint(t, mesh, 1200); a != b {
		t.Fatalf("mesh fingerprints diverge: %s vs %s", a, b)
	}
}

// TestKSampling checks sampled-peer rounds (K > 0) are reproducible and
// draw peers: the run is not the every-peer one.
func TestKSampling(t *testing.T) {
	all := testConfig(29)
	sampled := all
	sampled.K = 2
	a, b := runFingerprint(t, sampled, 600), runFingerprint(t, sampled, 600)
	if a != b {
		t.Fatalf("K-sampled fingerprints diverge: %s vs %s", a, b)
	}
	if every := runFingerprint(t, all, 600); a == every {
		t.Fatalf("K = 2 ran the every-peer run, fingerprint %s", a)
	}
}

// TestNewAllocs holds New at 10x20x50, 10^4 nodes, to a fixed handful of
// allocations, none of them proportional to the node count:
//
//   - the engine and its twelve per-node arrays: 13;
//   - the init stream's PCG: 1;
//   - the kernel and its two per-node arrays: 3;
//   - the seed batch: 1.
//
// A seed batch regrown by append instead of made at the node count costs
// about twenty more.
func TestNewAllocs(t *testing.T) {
	cfg := testConfig(1)
	cfg.Topo = Topology{Regions: 10, Clusters: 20, Members: 50}
	// The first collection allocates the collector's workers; the arrays
	// are large enough to start one, so it runs before counting.
	runtime.GC()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			panic(err)
		}
	})
	if allocs > 18 {
		t.Errorf("New makes %v allocations, want at most 18", allocs)
	}
}

// TestConfigValidation covers New's rejection paths.
func TestConfigValidation(t *testing.T) {
	base := testConfig(1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one member", func(c *Config) { c.Topo.Members = 1 }},
		{"zero tau", func(c *Config) { c.Tau = 0 }},
		{"negative delta", func(c *Config) { c.Delta = -1 }},
		{"infinite tau", func(c *Config) { c.Tau = math.Inf(1) }},
		{"NaN delta", func(c *Config) { c.Delta = math.NaN() }},
		{"infinite delta", func(c *Config) { c.Delta = math.Inf(1) }},
		{"NaN drift", func(c *Config) { c.DriftMax = math.NaN() }},
		{"infinite drift", func(c *Config) { c.DriftMax = math.Inf(1) }},
		{"NaN initial error", func(c *Config) { c.InitialError = math.NaN() }},
		{"infinite initial error", func(c *Config) { c.InitialError = math.Inf(1) }},
		{"negative band min", func(c *Config) { c.Member.Min = -0.0001 }},
		{"NaN band min", func(c *Config) { c.Uplink.Min = math.NaN() }},
		{"infinite band min", func(c *Config) { c.Backbone = Band{Min: math.Inf(1), Max: math.Inf(1)} }},
		{"band max below min", func(c *Config) { c.Member.Max = c.Member.Min / 2 }},
		{"collect window at tau", func(c *Config) { c.Tau = 2 * c.Backbone.Max }},
		{"zero collect window", func(c *Config) { c.Member, c.Uplink, c.Backbone = Band{}, Band{}, Band{} }},
		{"rule MM", func(c *Config) { c.Rule = 1 }},
		{"unknown rule", func(c *Config) { c.Rule = 2 }},
		// Rejected before allocating: the first product wraps negative,
		// and the second is 1<<31 nodes, one past the int32 node ids.
		{"node count wraps", func(c *Config) { c.Topo = Topology{Regions: 1 << 31, Clusters: 1 << 31, Members: 3} }},
		{"node count past int32", func(c *Config) { c.Topo = Topology{Regions: 1 << 15, Clusters: 1 << 15, Members: 2} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: config accepted", tc.name)
		}
	}
}
