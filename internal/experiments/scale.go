package experiments

import (
	"fmt"
	"math"

	"disttime/internal/scale"
)

// The S1 scale sweep runs the paper's protocol on the sharded kernel at
// sizes the original TEMPO deployment could only gesture at: a
// stratified region/cluster/member hierarchy (the paper's "network of
// networks" Xerox internet) grown to 10^4..10^5 servers. It measures the
// skew-vs-distance gradient the stratification predicts: every server
// intersects the intervals of its cluster peers each round, so two clocks
// of one cluster agree more closely than two clocks that only meet over
// an uplink or the backbone, whose replies rarely bind an intersection
// (a backbone reply's trailing edge lags true time by its return delay,
// 20 ms or more, and by the responder's own error).

// ScaleSize names one topology of the sweep.
type ScaleSize struct {
	Name                       string
	Regions, Clusters, Members int
}

// Nodes is the server count of the topology.
func (s ScaleSize) Nodes() int { return s.Regions * s.Clusters * s.Members }

// DefaultScaleSizes is the published sweep: 10k, 50k, and 100k servers.
func DefaultScaleSizes() []ScaleSize {
	return []ScaleSize{
		{Name: "10k", Regions: 10, Clusters: 20, Members: 50},
		{Name: "50k", Regions: 10, Clusters: 100, Members: 50},
		{Name: "100k", Regions: 20, Clusters: 100, Members: 50},
	}
}

// ScaleConfig parameterizes the sweep.
type ScaleConfig struct {
	// Sizes to run; nil means DefaultScaleSizes.
	Sizes []ScaleSize
	// Until is the virtual duration in seconds; values <= 0 mean 600
	// (ten sync rounds at tau=60), and a NaN or infinite one is an error.
	Until float64
}

// ScaleSweep (S1) runs the sweep and checks, at every size, that every
// interval contains the true time at the end with no inconsistency or
// rate-discipline fallback on the way, and the skew gradient; the
// reported error per tier is printed beside it. The per-size engine
// parameters mirror the theorem experiments: tau=60, delta=1e-4, honest
// drifts, and delay bands widening by a decade per tier (LAN 0.2-2ms,
// uplink 2-10ms, backbone 20-80ms). Each size seeds its engine from its node count, so a size's
// row is the same in any sweep.
func ScaleSweep(cfg ScaleConfig) (Table, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = DefaultScaleSizes()
	}
	until := cfg.Until
	if math.IsNaN(until) || math.IsInf(until, 0) {
		return Table{}, fmt.Errorf("scale-sweep: duration %v is not finite", until)
	}
	if until <= 0 {
		until = 600
	}
	out := Table{
		ID:    "S1",
		Title: "Scale sweep: skew vs network distance on the sharded kernel",
		Claim: "servers synchronize over their cluster's links, so clock skew grows with the network distance between two servers",
		Header: []string{"size", "nodes", "events", "mean E (s)",
			"hub E (s)", "gateway E (s)", "member E (s)",
			"skew in cluster (s)", "across clusters (s)", "across regions (s)", "resets", "fallbacks"},
	}
	for _, sz := range sizes {
		eng, err := scale.New(scale.Config{
			Topo:         scale.Topology{Regions: sz.Regions, Clusters: sz.Clusters, Members: sz.Members},
			Seed:         1 + 31*uint64(sz.Nodes()),
			Tau:          60,
			K:            8,
			Delta:        1e-4,
			DriftMax:     0.99e-4,
			InitialError: 0.05,
			Member:       scale.Band{Min: 0.0002, Max: 0.002},
			Uplink:       scale.Band{Min: 0.002, Max: 0.01},
			Backbone:     scale.Band{Min: 0.02, Max: 0.08},
			Rule:         scale.RuleIM,
		})
		if err != nil {
			return Table{}, fmt.Errorf("scale-sweep %s: %w", sz.Name, err)
		}
		eng.Run(until)
		sk := eng.SkewByDistance(until)
		te := eng.ErrorByTier(until)
		out.Rows = append(out.Rows, []string{
			sz.Name, fi(sz.Nodes()), fi(int(eng.Steps())),
			f(eng.MeanError(until)), f(te.Hub), f(te.Gateway), f(te.Member),
			f(sk.Cluster), f(sk.Region), f(sk.Service),
			fi(int(eng.Resets())), fi(int(eng.Fallbacks())),
		})
		if eng.Steps() == 0 || eng.Resets() == 0 {
			return out, fmt.Errorf("scale-sweep %s: dead run (%d events, %d resets)",
				sz.Name, eng.Steps(), eng.Resets())
		}
		// Every drift is within its bound, so every interval contains the
		// true time, no two are disjoint (Theorem 5), and no node's own
		// readings bound its drift outside delta (DESIGN.md §3).
		if n, m, fb := eng.Inconsistencies(), eng.Uncontained(until), eng.Fallbacks(); n > 0 || m > 0 || fb > 0 {
			return out, fmt.Errorf("scale-sweep %s: %d inconsistencies, %d of %d intervals miss the true time at t=%v, %d rate fallbacks",
				sz.Name, n, m, sz.Nodes(), until, fb)
		}
		// The gradient: two clocks of one cluster, which intersect each
		// other's intervals, must agree more closely than two clocks a
		// cluster or a region apart. (The reported error per tier is
		// not asserted: every tier intersects the same LAN replies, so
		// its tier means differ by less than the delta*tau sawtooth of
		// a tier as small as 10 hubs.)
		if sk.Cluster >= sk.Region || sk.Cluster >= sk.Service {
			return out, fmt.Errorf("scale-sweep %s: no skew gradient (in cluster %v, across clusters %v, across regions %v)",
				sz.Name, sk.Cluster, sk.Region, sk.Service)
		}
	}
	last := out.Rows[len(out.Rows)-1]
	out.Finding = fmt.Sprintf("skew grows with network distance at every size up to %s servers (%s s in a cluster vs %s s across clusters and %s s across regions at n=%s)",
		last[0], last[7], last[8], last[9], last[1])
	return out, nil
}

// ScaleSweepSmoke is the registry entry (S1): the same sweep at a
// CI-sized 2k-server topology so `-experiment S1` and the test suite
// stay fast. The full 10k/50k/100k sweep runs via `timesim -scale`; its
// speed is tracked by the sim_scale_* workloads of `bash cmd/bench/run.sh`.
func ScaleSweepSmoke() (Table, error) {
	return ScaleSweep(ScaleConfig{
		Sizes: []ScaleSize{{Name: "2k", Regions: 8, Clusters: 10, Members: 25}},
	})
}

// ScaleEntries lists the scale-sweep experiment family.
func ScaleEntries() []Entry {
	return []Entry{
		{ID: "S1", Slug: "scale-sweep", Source: "sharded kernel, 10^4..10^5 servers", Run: ScaleSweepSmoke},
	}
}
