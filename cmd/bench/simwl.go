package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/scale"
	"disttime/internal/service"
	"disttime/internal/simnet"
)

// scaleSize is one sim_scale_* workload: a topology and how far to run
// it. The two sizes execute about the same number of events, so a cost
// that grows with the state shows on the large one alone.
type scaleSize struct {
	topo  scale.Topology
	until float64 // virtual seconds
	step  float64 // virtual seconds per timed step
}

// scaleConfig is ScaleSweep's parameter set (experiments.ScaleSweep):
// tau 60, eight peers, delta 1e-4, honest drifts, IM.
func scaleConfig(topo scale.Topology, seed uint64) scale.Config {
	shards := 2
	if n := runtime.NumCPU(); n < shards {
		shards = n
	}
	return scale.Config{
		Topo: topo, Shards: shards, Seed: seed,
		Tau: 60, K: 8, Delta: 1e-4, DriftMax: 0.99e-4, InitialError: 0.05,
		Member:   scale.Band{Min: 0.0002, Max: 0.002},
		Uplink:   scale.Band{Min: 0.002, Max: 0.01},
		Backbone: scale.Band{Min: 0.02, Max: 0.08},
		Rule:     scale.RuleIM,
	}
}

// simScale runs the flat-array engine on the sharded kernel. One trial
// is one engine built and run to until in steps of step virtual
// seconds; the operation whose latency is reported is one step.
func simScale(sz scaleSize) func(*pass) error {
	return func(p *pass) error {
		if p.smoke {
			sz = scaleSize{topo: scale.Topology{Regions: 2, Clusters: 4, Members: 10}, until: 120, step: 10}
		}
		cfg := scaleConfig(sz.topo, p.seed)
		err := p.setupSamples(func() error {
			eng, err := scale.New(cfg)
			if err != nil {
				return err
			}
			eng.Close()
			return nil
		})
		if err != nil {
			return err
		}

		var fingerprint string
		var steps uint64
		// run builds an engine and advances it; stepped false is the bare
		// Run(until) a user of the package would write.
		run := func(rec *recorder, i int, stepped bool) error {
			sp := rec.begin(p.root, fmt.Sprintf("trial[%d]", i))
			defer rec.end(sp)
			heap0 := 0.0
			if rec != nil {
				heap0 = liveHeapMB()
			}
			t0 := time.Now()
			eng, err := scale.New(cfg)
			newS := time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			defer eng.Close()
			reg := obs.NewRegistry()
			if rec != nil {
				eng.Observe(reg)
			}

			var lats, perEvent []float64
			start := time.Now()
			if stepped {
				prev, done := start, uint64(0)
				for k := 1; ; k++ {
					t := math.Min(float64(k)*sz.step, sz.until)
					eng.Run(t)
					now := time.Now()
					lats = append(lats, now.Sub(prev).Seconds())
					if rec != nil {
						rec.add(sp, "scale.Run", prev, now)
						if n := eng.Steps() - done; n > 0 {
							perEvent = append(perEvent, now.Sub(prev).Seconds()*1e9/float64(n))
						}
						done = eng.Steps()
					}
					prev = now
					if t >= sz.until {
						break
					}
				}
			} else {
				eng.Run(sz.until)
				lats = []float64{time.Since(start).Seconds()}
			}
			wall := time.Since(start).Seconds()

			r0 := time.Now()
			e := eng.MeanError(sz.until)
			tiers := eng.ErrorByTier(sz.until)
			skew := eng.Skew(sz.until)
			readMs := time.Since(r0).Seconds() * 1e3

			fp := eng.Fingerprint()
			if fingerprint == "" {
				fingerprint, steps = fp, eng.Steps()
				p.info["fingerprint"], p.info["events"] = fp, fmt.Sprint(steps)
				p.info["nodes"], p.info["shards"] = fmt.Sprint(eng.Nodes()), fmt.Sprint(eng.Shards())
			}
			p.check(fp == fingerprint && eng.Steps() == steps,
				"trial %d ended in state %s after %d events, the first in %s after %d", i, fp, eng.Steps(), fingerprint, steps)
			// Every drift bound is valid, so no two intervals may ever be
			// disjoint (Theorem 5), and every clock stays within its error
			// of the true time, hence so does each tier's mean.
			p.check(eng.Inconsistencies() == 0, "trial %d: %d inconsistent intersections among correct servers", i, eng.Inconsistencies())
			p.check(skew.Hub <= tiers.Hub && skew.Gateway <= tiers.Gateway && skew.Member <= tiers.Member,
				"trial %d: mean |C-t| %+v exceeds mean E %+v", i, skew, tiers)
			p.check(eng.Resets() > 0, "trial %d: no clock was ever reset", i)

			t := trial{
				ops: float64(eng.Steps()), wall: wall,
				p50: quantile(lats, 0.50), p99: quantile(lats, 0.99), e: e,
			}
			p.keep(t, !stepped)
			if stepped {
				p.setups = append(p.setups, newS)
			}
			if rec != nil {
				heap := liveHeapMB() - heap0 // the engine is still live here
				p.layer["scale.new_s"] = newS
				p.layer["scale.ns_per_event"] = wall * 1e9 / float64(eng.Steps())
				p.layer["scale.events"] = float64(eng.Steps())
				p.layer["scale.resets"] = float64(eng.Resets())
				p.layer["scale.inconsistencies"] = float64(eng.Inconsistencies())
				p.layer["scale.live_heap_mb"] = heap
				p.layer["scale.bytes_per_node"] = heap * (1 << 20) / float64(eng.Nodes())
				p.layer["scale.chunk_ns_per_event_p50"] = quantile(perEvent, 0.5)
				_, p.layer["scale.chunk_ns_per_event_max"] = minMax(perEvent)
				p.layer["scale.read_metrics_ms"] = readMs
				w := float64(reg.Counter("simshard_windows_total").Value())
				p.layer["shard.windows"] = w
				p.layer["shard.merged_events"] = float64(reg.Counter("simshard_merged_events_total").Value())
				p.layer["shard.events_per_window"] = ratio(float64(eng.Steps()), w)
			}
			return nil
		}

		if !p.traced() {
			for i := 0; p.more(3); i++ {
				if err := run(nil, i, true); err != nil {
					return err
				}
			}
			return nil
		}
		// Traced pass: the bare call, then the same run stepped and traced.
		before := readProc()
		if err := run(nil, 0, false); err != nil {
			return err
		}
		p.procLayer(before, float64(steps))
		if err := run(p.rec, 1, true); err != nil {
			return err
		}
		p.stagesScale()
		return nil
	}
}

// meshServers is the 32-server full mesh of sim_mesh_32: drifts spread
// evenly over +-80 ppm, each bound 20 % above its drift.
func meshServers(n int) []service.ServerSpec {
	specs := make([]service.ServerSpec, n)
	for j := range specs {
		drift := float64(j-n/2) * 5e-6
		specs[j] = service.ServerSpec{
			Delta: 1.2*math.Abs(drift) + 1e-6, Drift: drift,
			InitialError: 0.05, SyncEvery: 60,
		}
	}
	return specs
}

// simMesh runs core.Server objects over simnet on the sequential
// kernel: the other implementation of the rules and of the event loop.
// One trial is a simulated day sampled every 30 s; the operation whose
// latency is reported is one such step, Run(+30 s) and Snapshot.
func simMesh(p *pass) error {
	n, day, every := 32, 86400.0, 30.0
	if p.smoke {
		n, day = 8, 1800
	}
	cfg := service.Config{
		Seed: p.seed, Delay: simnet.Uniform{Max: 0.01}, Fn: core.IM{}, Servers: meshServers(n),
	}
	// Set-up is a cold start: build the mesh and run its first ten
	// simulated minutes, ten rounds of every server. service.New alone
	// takes 0.2 ms, too little to time on a shared host.
	err := p.setupSamples(func() error {
		svc, err := service.New(cfg)
		if err == nil {
			svc.Run(600)
		}
		return err
	})
	if err != nil {
		return err
	}

	var first []float64 // the first trial's last sample, for the determinism check
	var events float64
	run := func(rec *recorder, i int, stepped bool) error {
		sp := rec.begin(p.root, fmt.Sprintf("trial[%d]", i))
		defer rec.end(sp)
		t0 := time.Now()
		svc, err := service.New(cfg)
		newS := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		if rec != nil {
			svc.Observe(reg, nil)
		}

		var samples []service.Sample
		var lats []float64
		var snapS float64
		start := time.Now()
		if stepped {
			prev := start
			for t := every; ; t += every {
				t = math.Min(t, day)
				svc.Run(t)
				mid := time.Now()
				samples = append(samples, svc.Snapshot())
				now := time.Now()
				lats = append(lats, now.Sub(prev).Seconds())
				snapS += now.Sub(mid).Seconds()
				if rec != nil {
					rec.add(sp, "service.Run", prev, mid)
					rec.add(sp, "Snapshot", mid, now)
				}
				prev = now
				if t >= day {
					break
				}
			}
		} else {
			if samples, err = svc.RunSampled(day, every); err != nil {
				return err
			}
			lats = []float64{time.Since(start).Seconds()}
		}
		wall := time.Since(start).Seconds()

		var eSum float64
		correct := true
		for _, s := range samples {
			for _, e := range s.E {
				eSum += e
			}
			correct = correct && s.AllCorrect
		}
		eMean := eSum / float64(len(samples)*n)
		p.check(correct, "trial %d: a server's interval lost the true time", i)
		last := samples[len(samples)-1].C
		if first == nil {
			first, events = last, float64(svc.Sim.Steps())
			p.info["events"] = fmt.Sprint(svc.Sim.Steps())
		}
		same := len(last) == len(first)
		for j := 0; same && j < len(last); j++ {
			same = math.Float64bits(last[j]) == math.Float64bits(first[j])
		}
		p.check(same, "trial %d ended with other clock values than the first", i)

		t := trial{
			ops: float64(svc.Sim.Steps()), wall: wall,
			p50: quantile(lats, 0.50), p99: quantile(lats, 0.99), e: eMean,
		}
		p.keep(t, !stepped)
		if rec != nil {
			p.layer["service.new_ms"] = newS * 1e3
			p.layer["service.ns_per_event"] = wall * 1e9 / float64(svc.Sim.Steps())
			p.layer["service.events"] = float64(svc.Sim.Steps())
			p.layer["service.sync_rounds"] = float64(reg.Counter("service_sync_rounds_total").Value())
			p.layer["service.resets"] = float64(reg.Counter("service_resets_total").Value())
			p.layer["service.snapshot_us"] = snapS / float64(len(samples)) * 1e6
			p.layer["service.e_growth_ppm"] = eGrowthPPM(samples)
		}
		return nil
	}

	if !p.traced() {
		for i := 0; p.more(5); i++ {
			if err := run(nil, i, true); err != nil {
				return err
			}
		}
		return nil
	}
	before := readProc()
	if err := run(nil, 0, false); err != nil {
		return err
	}
	p.procLayer(before, events)
	if err := run(p.rec, 1, true); err != nil {
		return err
	}
	p.stagesMesh()
	return nil
}

// eGrowthPPM is the rate at which E grows between syncs: per server,
// the sum of the positive E increments between consecutive samples over
// the time those increments cover, in parts per million, averaged over
// servers. A reset shows as a negative increment and is left out.
func eGrowthPPM(samples []service.Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	n := len(samples[0].E)
	var sum float64
	for j := 0; j < n; j++ {
		var rise, span float64
		for k := 1; k < len(samples); k++ {
			if d := samples[k].E[j] - samples[k-1].E[j]; d > 0 {
				rise += d
				span += samples[k].T - samples[k-1].T
			}
		}
		sum += ratio(rise, span)
	}
	return sum / float64(n) * 1e6
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
