package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/interval"
	"disttime/internal/obs"
	"disttime/internal/sim"
	"disttime/internal/sim/shard"
	"disttime/internal/udptime"
	"disttime/internal/wire"
)

// The sinks keep the compiler from removing a measured call.
var (
	sinkU uint64
	sinkF float64
	sinkD time.Duration
	sinkI int
)

// stage times fn(n), n calls into one layer, from outside the layer:
// n is raised until one repetition lasts 10 ms, then the median of ten
// repetitions is recorded under name, in nanoseconds per call.
func (p *pass) stage(name string, fn func(n int)) {
	sp := p.rec.begin(p.root, "stage."+name)
	defer p.rec.end(sp)
	floor, reps := 10*time.Millisecond, 10
	if p.smoke {
		floor, reps = 100*time.Microsecond, 2
	}
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= floor {
			break
		} else if d < floor/10 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, reps)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	p.layer[name] = median(per)
}

var wireResponse = wire.Response{
	ReqID: 7, ServerID: 3,
	Clock:    time.Unix(0, 1_700_000_000_000_000_000),
	MaxError: 250 * time.Microsecond,
}

// stagesServing times what one request passes through on its way round
// a w64 workload, sockets left out: the codec, the clock read the
// serving path makes, and the metrics both ends update. It then writes
// the workload's attribution row under layerPrefix.
func (p *pass) stagesServing(batched bool, layerPrefix string) {
	req := make([]byte, 0, wire.RequestSize)
	resp := make([]byte, 0, wire.ResponseSize)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	p.stage("wire.request_rt_ns", func(n int) {
		calls += n
		for i := 0; i < n; i++ {
			req = wire.AppendRequest(req[:0], wire.Request{ReqID: uint64(i)})
			r, _ := wire.ParseRequest(req)
			sinkU = r.ReqID
		}
	})
	p.stage("wire.response_rt_ns", func(n int) {
		calls += n
		for i := 0; i < n; i++ {
			resp, _ = wire.AppendResponse(resp[:0], wireResponse)
			r, _ := wire.ParseResponse(resp)
			sinkU = r.ReqID
		}
	})
	runtime.ReadMemStats(&m1)
	p.layer["wire.allocs_per_rt"] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)

	// The classic server bumps two counters per request; the batched
	// server and the generator bump theirs once per batch.
	clockRead, counters := "udptime.sysclock.now_ns", 2.0
	if batched {
		clockRead, counters = "udptime.tickcache.now_ns", 0
		src, _ := serverClock()
		pump := udptime.NewServeBatchBench(64)
		p.stage("udptime.responder.ns_per_req", func(n int) {
			for i := 0; i < n/64; i++ { // n is a power of two
				sinkI = pump()
			}
		})
		tc := udptime.NewTickCache(src, 0, driftPPM)
		p.stage("udptime.tickcache.now_ns", func(n int) {
			for i := 0; i < n; i++ {
				_, e, _ := tc.Now()
				sinkD = e
			}
		})
		tc.Stop()
	} else {
		p.stageSysClock()
	}

	reg := obs.NewRegistry()
	h, c := reg.LogHistogram("h"), reg.Counter("c")
	p.stage("obs.loghist_observe_ns", func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(100e-6 + float64(i&1023)*1e-7)
		}
	})
	p.stage("obs.counter_inc_ns", func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})

	// The first attribution row: wall time per request at capacity
	// against the stages one request passes through. What is left is
	// socket I/O, scheduling and the generator's bookkeeping. Client
	// and server run on different cores, so the wall time per request is
	// the larger of the two sides, not their sum: the remainder is a
	// lower bound on what the stages do not explain.
	stages := p.layer["wire.request_rt_ns"] + p.layer["wire.response_rt_ns"] + p.layer[clockRead] +
		p.layer["obs.loghist_observe_ns"] + counters*p.layer["obs.counter_inc_ns"]
	p.layer[layerPrefix+"unattributed_ns_per_req"] = p.layer[layerPrefix+"ns_per_req"] - stages
}

func (p *pass) stageSysClock() {
	src, _ := serverClock()
	p.stage("udptime.sysclock.now_ns", func(n int) {
		for i := 0; i < n; i++ {
			_, e, _ := src.Now()
			sinkD = e
		}
	})
}

// stagesSync times the layers only udp_sync_v3 reaches: the version-3
// codec, the hybrid logical clock, and the intersection.
func (p *pass) stagesSync() {
	req := make([]byte, 0, wire.RequestHLCSize)
	resp := make([]byte, 0, wire.ResponseHLCSize)
	ts := hlc.Timestamp{Wall: 1_700_000_000_000_000_000, Logical: 1, Node: 3}
	p.stage("wire.hlc_rt_ns", func(n int) {
		for i := 0; i < n; i++ {
			req = wire.AppendRequestHLC(req[:0], wire.RequestHLC{ReqID: uint64(i), TS: ts})
			r, _ := wire.ParseRequestHLC(req)
			resp, _ = wire.AppendResponseHLC(resp[:0], wire.ResponseHLC{Response: wireResponse, TS: r.TS})
			rr, _ := wire.ParseResponseHLC(resp)
			sinkU = rr.ReqID
		}
	})
	local, remote := hlc.New(1), hlc.New(2)
	wall := int64(1_700_000_000_000_000_000)
	p.stage("hlc.now_ns", func(n int) {
		for i := 0; i < n; i++ {
			wall++
			ts = remote.Now(wall)
		}
	})
	p.stage("hlc.update_ns", func(n int) {
		for i := 0; i < n; i++ {
			wall++
			ts.Wall = wall
			local.Update(wall, ts)
		}
	})
	p.stageSysClock()
	p.stageIntersect8()
}

func (p *pass) stageIntersect8() {
	ivs := overlapping(8)
	p.stage("interval.intersect8_ns", func(n int) {
		for i := 0; i < n; i++ {
			iv, _ := interval.IntersectAll(ivs)
			sinkF = iv.Lo
		}
	})
}

// overlapping returns n intervals that all contain 0.
func overlapping(n int) []interval.Interval {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		ivs[i] = interval.Interval{Lo: -1 - float64(i)*0.01, Hi: 1 + float64(n-i)*0.01}
	}
	return ivs
}

// churn is a self-rescheduling chain on the sequential kernel.
type churn struct {
	s    *sim.Simulator
	left int
}

func churnTick(x any) {
	c := x.(*churn)
	if c.left--; c.left > 0 {
		c.s.AfterCall(1, churnTick, c)
	}
}

// stagesMesh times the layers under sim_mesh_32: the interval algebra,
// the two rules over eight replies, and the sequential kernel's event
// loop with nothing in the handler.
func (p *pass) stagesMesh() {
	p.stageIntersect8()
	ivs := overlapping(64)
	p.stage("interval.marzullo64_ns", func(n int) {
		for i := 0; i < n; i++ {
			sinkI = interval.Marzullo(ivs).Count
		}
	})
	replies := make([]core.Reply, 8)
	for i := range replies {
		replies[i] = core.Reply{From: i + 1, C: 1000.001, E: 0.5, RTT: 0.01}
	}
	srv, _ := core.NewServer(1000, core.Config{Clock: clock.NewDrifting(1000, 1000, 0), Delta: 1e-5, InitialError: 1})
	p.stage("core.im_sync8_ns", func(n int) {
		for i := 0; i < n; i++ {
			core.IM{}.Sync(srv, 1000, replies)
		}
	})
	p.stage("core.mm_sync8_ns", func(n int) {
		for i := 0; i < n; i++ {
			core.MM{}.Sync(srv, 1000, replies)
		}
	})
	c := &churn{s: sim.New(p.seed)}
	p.stage("sim.ns_per_event", func(n int) {
		for i := 0; i < n/1024; i++ { // n is a power of two
			c.left = 1024
			c.s.AfterCall(1, churnTick, c)
			c.s.Run()
		}
	})
}

// rearm is a handler that does nothing but schedule its node's next
// timer one virtual second on, so the heap keeps its size.
type rearm struct{}

func (rearm) Event(p *shard.Proc, ev shard.Ev) { p.After(ev.Node, 1, ev.Kind, 0, 0, 0) }

// stageShard times the sharded kernel with nodes pending timers at
// random phases: one event per node per virtual second. With 30 000
// nodes and a 20 ms lookahead a window holds 600 events, as it does in
// sim_scale_100k.
func (p *pass) stageShard(name string, nodes, shards int) {
	if p.smoke {
		nodes = nodes/100 + 2
	}
	k, err := shard.New(shard.Config{Nodes: nodes, Shards: shards, Seed: p.seed, Lookahead: 0.02, Handler: rearm{}})
	if err != nil {
		panic(err) // the configuration is a constant of the benchmark
	}
	defer k.Close()
	rng := rand.New(rand.NewPCG(p.seed, 1))
	for n := 0; n < nodes; n++ {
		k.Seed(int32(n), rng.Float64(), 1, 0, 0, 0)
	}
	until := 1.0
	k.Run(until)
	p.stage(name, func(n int) {
		until += float64(n) / float64(nodes)
		k.Run(until)
	})
}

// stagesScale times the kernel under sim_scale_*, away from the scale
// engine's arrays: one shard against two at equal work is the barrier,
// 10^3 against 10^5 pending timers is the depth of the heap.
func (p *pass) stagesScale() {
	shards := 2
	if runtime.NumCPU() < shards {
		shards = 1
	}
	p.stageShard("shard.ns_per_event_1", 30000, 1)
	p.stageShard("shard.ns_per_event_2", 30000, shards)
	p.stageShard("shard.ns_per_event_heap1e3", 1000, 1)
	p.stageShard("shard.ns_per_event_heap1e5", 100000, 1)
}
