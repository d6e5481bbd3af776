package scale

import (
	"math"
	"runtime"
	"testing"

	"disttime/internal/service"
	"disttime/internal/simnet"
)

// testConfig is a small stratified service: 8 regions so the determinism
// matrix can exercise up to 8 shards.
func testConfig(shards int, seed uint64) Config {
	return Config{
		Topo:         Topology{Regions: 8, Clusters: 2, Members: 4},
		Shards:       shards,
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

// TestDeterminismMatrix is the cross-kernel determinism test: with every
// cluster peer polled and with K sampled ones (the one configuration that
// draws from a node's stream outside delay), seeded runs must be
// byte-identical across shards 1, 2, 4, and 8 — and shards=1 (single
// heap, unbounded window) IS the sequential kernel, so each row also
// checks sharded-vs-sequential equality.
func TestDeterminismMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{{"plain", 0}, {"ksampled", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			with := func(shards int) Config {
				cfg := testConfig(shards, 42)
				cfg.K = tc.k
				return cfg
			}
			sequential := runFingerprint(t, with(1), 600)
			for _, shards := range []int{2, 4, 8} {
				if got := runFingerprint(t, with(shards), 600); got != sequential {
					t.Fatalf("%s shards=%d: fingerprint %s, sequential %s",
						tc.name, shards, got, sequential)
				}
			}
		})
	}
}

// TestDeterminismSeedSensitivity checks the fingerprint actually depends
// on the seed.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a := runFingerprint(t, testConfig(2, 1), 300)
	b := runFingerprint(t, testConfig(2, 2), 300)
	if a == b {
		t.Fatalf("different seeds produced identical fingerprint %s", a)
	}
}

// TestGoldenFingerprints pins the final state of one seeded run.
// The rule functions in core keep their floating-point operation order; a
// digest that moves means a rule's arithmetic changed, which is a change
// of behaviour to justify and re-pin, never a refactoring.
func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"im", testConfig(2, 42), "5e3f24d4bae433fa"},
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
		{"im", testConfig(4, 7)},
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
	honest := testConfig(2, 9)
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

	past := testConfig(1, 1)
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
// the collect window, after every reply is in, so none arrives late at
// any shard count.
func TestNoLateReplies(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		e, err := New(testConfig(shards, 3))
		if err != nil {
			t.Fatal(err)
		}
		e.Run(1800)
		if n := e.late; n != 0 {
			t.Errorf("shards=%d: %d replies arrived after their round closed", shards, n)
		}
		if e.Resets() == 0 {
			t.Errorf("shards=%d: no clock resets", shards)
		}
	}
}

// TestMinDelayCreditAtTheEdge holds reply's minimum-delay credit to the
// band's Min, not more. Two nodes on a fixed delay d run with exact
// clocks and zero drift bound. Node 1's clock reads its error, less a
// nanosecond, ahead of true time, so the true time sits on its interval's
// lower edge; node 0's error is wide. Node 0's interval from node 1's
// reply then has the true time a nanosecond inside its trailing edge,
// and every interval stays on the true time at every check. Crediting
// each leg more than d moves that edge past the true time by the excess.
func TestMinDelayCreditAtTheEdge(t *testing.T) {
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
	e.off[1], e.eps[1], e.resetRef[1] = ej-tiny, ej, ej-tiny
	for ts := 0.25; ts <= 3*e.cfg.Tau; ts += 0.25 {
		e.Run(ts)
		if n := e.Uncontained(ts); n > 0 {
			t.Fatalf("t=%v: %d nodes have |C-t| > E", ts, n)
		}
	}
	if e.Inconsistencies() != 0 || !(e.eps[0] < 2*ej) {
		t.Fatalf("%d inconsistencies; node 0's error %v, want below %v: node 1's reply was not adopted",
			e.Inconsistencies(), e.eps[0], 2*ej)
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
	cfg := testConfig(2, 11)
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
	cfg := testConfig(4, 23)
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
		cfg := testConfig(1, 1)
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
// full mesh) shards by node blocks and stays deterministic.
func TestMeshTopology(t *testing.T) {
	mesh := func(shards int) Config {
		return Config{
			Topo:   Topology{Regions: 1, Clusters: 1, Members: 16},
			Shards: shards, Seed: 5, Tau: 60,
			Delta: 1e-4, DriftMax: 0.99e-4, InitialError: 0.05,
			Member: Band{Min: 0.0001, Max: 0.0005},
			Rule:   RuleIM,
		}
	}
	one := runFingerprint(t, mesh(1), 1200)
	four := runFingerprint(t, mesh(4), 1200)
	if one != four {
		t.Fatalf("mesh fingerprints diverge: %s vs %s", one, four)
	}
	e, err := New(mesh(4))
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("mesh Shards() = %d, want 4", e.Shards())
	}
}

// TestKSampling checks sampled-peer rounds (K > 0) work and stay
// deterministic across shard counts.
func TestKSampling(t *testing.T) {
	with := func(shards int) Config {
		cfg := testConfig(shards, 29)
		cfg.K = 2
		return cfg
	}
	one := runFingerprint(t, with(1), 600)
	eight := runFingerprint(t, with(8), 600)
	if one != eight {
		t.Fatalf("K-sampled fingerprints diverge: %s vs %s", one, eight)
	}
}

// TestNewAllocs holds New at 10x20x50, 10^4 nodes, to a fixed handful of
// allocations, none of them proportional to the node count:
//
//   - the engine and its twelve per-node arrays: 13;
//   - partition's two closures and the init stream's PCG: 3;
//   - the kernel, its three per-node arrays and its shard list: 5;
//   - per shard, its context, its outbox list and its seed batch: 3.
//
// A seed batch regrown by append instead of made at the shard's node
// count costs about twenty more a shard.
func TestNewAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := testConfig(shards, 1)
		cfg.Topo = Topology{Regions: 10, Clusters: 20, Members: 50}
		// The first collection allocates the collector's workers; the
		// arrays are large enough to start one, so it runs before counting.
		runtime.GC()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := New(cfg); err != nil {
				panic(err)
			}
		})
		if want := 21 + 3*shards; allocs > float64(want) {
			t.Errorf("shards=%d: New makes %v allocations, want at most %d", shards, allocs, want)
		}
	}
}

// TestConfigValidation covers New's rejection paths.
func TestConfigValidation(t *testing.T) {
	base := testConfig(1, 1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one member", func(c *Config) { c.Topo.Members = 1 }},
		{"zero tau", func(c *Config) { c.Tau = 0 }},
		{"negative delta", func(c *Config) { c.Delta = -1 }},
		{"zero backbone min sharded", func(c *Config) { c.Shards = 4; c.Backbone.Min = 0 }},
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
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: config accepted", tc.name)
		}
	}
}
