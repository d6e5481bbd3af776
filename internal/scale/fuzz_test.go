package scale

import (
	"math"
	"testing"
)

// FuzzScaleConfig holds New to its contract over arbitrary parameters on
// small topologies: it returns an error, or the engine runs six periods,
// so that every node's rate discipline updates at least twice, without
// a panic. With every drift d within delta/(1+delta), the run
// must also end with every interval containing the true time (Theorem 5),
// no inconsistency, no rate bound outside [-delta, delta], and no reply
// after its round closed, since the collect window outlasts every round
// trip. The drift condition is where rule MM-1's aging at delta, before a
// node's first rate bound, is sound: a clock running slow at -d gains
// d/(1-d) of error per local second, which delta covers only if
// d <= delta/(1+delta) (ROADMAP item 23). The window's margin over xi
// must also exceed a few ulps of the clock at 6 tau, or a reply and its
// close can round to one instant. The body takes the tiers modulo 4
// and 6, so each seed row's counts are below those. The first row is
// testConfig on three regions; the last, drifts three times a large
// delta, drives the discipline's fallback (five times on seed 10). Rows
// 6 and 7 hold the minimum-delay credit to containment with no delay
// uncertainty (Min == Max on every tier, so a reply's interval is only
// the responder's own) and with a zero Min between two positive ones.
// Rows 8 and 9 do the same for a request's interval (core.Leg): a mesh
// on one fixed delay, its rounds open for 42 % of a period, so requests
// fold into open rounds and move closed ones' clocks; and a zero Min
// under every Max. Rows 10 and 11 do the same for a reply's Max credit
// (core.Charge's cap and its credit of the round trip less Max): Min ==
// Max on every tier of a three-region hierarchy with sampled
// peers, and a zero Min under every positive Max.
func FuzzScaleConfig(f *testing.F) {
	c := testConfig(1)
	f.Add(uint8(3), uint8(2), uint8(4), uint8(0), uint64(1), c.Tau, c.Delta, c.DriftMax, c.InitialError,
		c.Member.Min, c.Member.Max, c.Uplink.Min, c.Uplink.Max, c.Backbone.Min, c.Backbone.Max)
	f.Add(uint8(1), uint8(1), uint8(5), uint8(2), uint64(2), 60.0, 1e-4, 1e-4, 0.05,
		0.0003, 0.0005, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(3), uint8(3), uint8(0), uint64(3), 30.0, 1e-4, 2e-4, 0.0,
		0.0, 0.002, 0.002, 0.01, 0.02, 0.08)
	f.Add(uint8(1), uint8(2), uint8(2), uint8(0), uint64(4), math.NaN(), math.Inf(1), -1.0, 0.05,
		-0.001, 0.002, 0.0, math.NaN(), 0.02, 0.01)
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), uint64(5), 0.01, 1e-4, 1e-4, 0.05,
		0.001, 0.01, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(2), uint8(4), uint8(0), uint64(6), 30.0, 1e-4, 0.99e-4, 0.05,
		0.001, 0.001, 0.005, 0.005, 0.03, 0.03)
	f.Add(uint8(2), uint8(3), uint8(3), uint8(2), uint64(7), 30.0, 1e-4, 0.99e-4, 0.05,
		0.0005, 0.002, 0.0, 0.01, 0.02, 0.08)
	f.Add(uint8(1), uint8(1), uint8(5), uint8(0), uint64(11), 0.02, 1e-4, 0.99e-4, 0.05,
		0.004, 0.004, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(3), uint8(3), uint8(2), uint64(12), 0.5, 1e-4, 0.99e-4, 0.05,
		0.0, 0.002, 0.0, 0.01, 0.0, 0.08)
	f.Add(uint8(3), uint8(2), uint8(3), uint8(2), uint64(13), 20.0, 1e-4, 0.99e-4, 0.05,
		0.002, 0.002, 0.006, 0.006, 0.025, 0.025)
	f.Add(uint8(2), uint8(2), uint8(4), uint8(0), uint64(14), 20.0, 1e-4, 0.99e-4, 0.05,
		0.0, 0.003, 0.0, 0.01, 0.0, 0.05)
	f.Add(uint8(3), uint8(2), uint8(4), uint8(0), uint64(10), c.Tau, 0.1, 0.3, c.InitialError,
		c.Member.Min, c.Member.Max, c.Uplink.Min, c.Uplink.Max, c.Backbone.Min, c.Backbone.Max)
	f.Fuzz(func(t *testing.T, regions, clusters, members, k uint8, seed uint64,
		tau, delta, drift, initErr, mMin, mMax, uMin, uMax, bMin, bMax float64) {
		cfg := Config{
			Topo:  Topology{Regions: int(regions % 4), Clusters: int(clusters % 4), Members: int(members % 6)},
			K:     int(k % 6),
			Seed:  seed,
			Tau:   tau,
			Delta: delta, DriftMax: drift, InitialError: initErr,
			Member:   Band{Min: mMin, Max: mMax},
			Uplink:   Band{Min: uMin, Max: uMax},
			Backbone: Band{Min: bMin, Max: bMax},
		}
		e, err := New(cfg)
		if err != nil {
			return
		}
		until := 6 * cfg.Tau
		e.Run(until)
		resolvable := e.window-e.xi > 4*(math.Nextafter(until, math.Inf(1))-until)
		if !(cfg.DriftMax <= cfg.Delta/(1+cfg.Delta)) || !resolvable {
			return
		}
		if n := e.Uncontained(until); n != 0 {
			t.Fatalf("%+v: %d intervals miss the true time with every drift within its bound", cfg, n)
		}
		if n := e.Inconsistencies(); n != 0 {
			t.Fatalf("%+v: %d inconsistencies with every drift within its bound", cfg, n)
		}
		if n := e.Fallbacks(); n != 0 {
			t.Fatalf("%+v: %d rate bounds missed [-delta, delta] with every drift within it", cfg, n)
		}
		if n := e.Late(); n != 0 {
			t.Fatalf("%+v: %d replies arrived after their round closed", cfg, n)
		}
	})
}
