package disttime_test

// The benchmark harness: one benchmark per figure, theorem, and in-text
// experimental claim of the paper (the E1..E15 index in DESIGN.md). Each
// benchmark regenerates the corresponding experiment's table — run with
//
//	go test -bench=. -benchmem
//
// and compare with the recorded results in EXPERIMENTS.md. A benchmark
// fails if its experiment's paper-shape assertion does not hold, so the
// suite doubles as the reproduction gate. The final section adds
// micro-benchmarks on the hot paths (intersection sweep, event loop, the
// full service protocol).

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"disttime"
	"disttime/internal/experiments"
	"disttime/internal/hlc"
	"disttime/internal/sim"
	"disttime/internal/sim/shard"
	"disttime/internal/udptime"
	"disttime/internal/wire"
)

func runExperiment(b *testing.B, fn func() (experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatalf("experiment failed: %v\n%s", err, tbl)
		}
	}
}

// BenchmarkFigure1ErrorGrowth regenerates E1 (Figure 1): growth of maximum
// errors.
func BenchmarkFigure1ErrorGrowth(b *testing.B) { runExperiment(b, experiments.Figure1) }

// BenchmarkFigure2Intersection regenerates E2 (Figure 2 / Theorem 6).
func BenchmarkFigure2Intersection(b *testing.B) { runExperiment(b, experiments.Figure2) }

// BenchmarkTheorem1Correctness regenerates E3 (Theorems 1 and 5).
func BenchmarkTheorem1Correctness(b *testing.B) { runExperiment(b, experiments.Correctness) }

// BenchmarkTheorem2ErrorBound regenerates E4 (Theorem 2).
func BenchmarkTheorem2ErrorBound(b *testing.B) { runExperiment(b, experiments.Theorem2) }

// BenchmarkTheorem3Asynchronism regenerates E5 (Theorem 3).
func BenchmarkTheorem3Asynchronism(b *testing.B) { runExperiment(b, experiments.Theorem3) }

// BenchmarkTheorem4Convergence regenerates E6 (Theorem 4).
func BenchmarkTheorem4Convergence(b *testing.B) { runExperiment(b, experiments.Theorem4) }

// BenchmarkTheorem7IMAsynchronism regenerates E7 (Theorem 7).
func BenchmarkTheorem7IMAsynchronism(b *testing.B) { runExperiment(b, experiments.Theorem7) }

// BenchmarkTheorem8ExpectedError regenerates E8 (Theorem 8).
func BenchmarkTheorem8ExpectedError(b *testing.B) { runExperiment(b, experiments.Theorem8) }

// BenchmarkRecoveryFaultyDrift regenerates E9 (the Section 3 experiment).
func BenchmarkRecoveryFaultyDrift(b *testing.B) { runExperiment(b, experiments.Recovery) }

// BenchmarkIMvsMMErrorGrowth regenerates E10 (the Section 4 "ten times
// slower" experiment).
func BenchmarkIMvsMMErrorGrowth(b *testing.B) { runExperiment(b, experiments.IMvsMM) }

// BenchmarkFigure3IMFailure regenerates E11 (Figure 3).
func BenchmarkFigure3IMFailure(b *testing.B) { runExperiment(b, experiments.Figure3) }

// BenchmarkFigure4ConsistencyGroups regenerates E12 (Figure 4).
func BenchmarkFigure4ConsistencyGroups(b *testing.B) { runExperiment(b, experiments.Figure4) }

// BenchmarkConsonanceRates regenerates E13 (Section 5).
func BenchmarkConsonanceRates(b *testing.B) { runExperiment(b, experiments.Consonance) }

// BenchmarkBaselineComparison regenerates E14 (Section 1.2 baselines).
func BenchmarkBaselineComparison(b *testing.B) { runExperiment(b, experiments.Baselines) }

// BenchmarkFaultTolerantIntersection regenerates E15 (the [Marzullo 83]
// extension).
func BenchmarkFaultTolerantIntersection(b *testing.B) {
	runExperiment(b, experiments.FaultTolerantIntersection)
}

// --- Micro-benchmarks on the hot paths ---

// BenchmarkMarzulloSweep measures the fault-tolerant intersection sweep on
// 100 intervals (the per-selection cost in an NTP-like client). The warm-up
// call before the timer primes the sweeper pool, so the measured window is
// steady-state: 0 allocs/op.
func BenchmarkMarzulloSweep(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	ivs := make([]disttime.Interval, 100)
	for i := range ivs {
		ivs[i] = disttime.FromEstimate(rng.Float64()*10, 0.5+rng.Float64())
	}
	disttime.Marzullo(ivs) // warm the sweeper pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.Marzullo(ivs)
	}
}

// BenchmarkMarzulloSweep1000 is the adversarial scale point: 1000
// overlapping intervals, the regime of the A5 scale ablation grown toward
// the paper's hundreds-of-servers deployment. Still 0 allocs/op.
func BenchmarkMarzulloSweep1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	ivs := make([]disttime.Interval, 1000)
	for i := range ivs {
		ivs[i] = disttime.FromEstimate(rng.Float64()*10, 0.5+rng.Float64())
	}
	disttime.Marzullo(ivs) // warm the sweeper pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.Marzullo(ivs)
	}
}

// BenchmarkConsistencyGroups measures Figure 4 decomposition on 100
// intervals.
func BenchmarkConsistencyGroups(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	ivs := make([]disttime.Interval, 100)
	for i := range ivs {
		ivs[i] = disttime.FromEstimate(rng.Float64()*100, 0.5+rng.Float64())
	}
	disttime.ConsistencyGroups(ivs) // warm the sweeper pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.ConsistencyGroups(ivs)
	}
}

// BenchmarkConsistencyGroupsDense is the worst case for the sweep's active
// set: 256 mutually overlapping intervals (one giant clique), which made
// the former map-based active set churn hardest. Only the returned group
// is allocated.
func BenchmarkConsistencyGroupsDense(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 8))
	ivs := make([]disttime.Interval, 256)
	for i := range ivs {
		// All intervals contain [0.9, 1.0]: a single dense clique.
		ivs[i] = disttime.FromEstimate(rng.Float64()*0.4+0.8, 1+rng.Float64())
	}
	disttime.ConsistencyGroups(ivs) // warm the sweeper pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.ConsistencyGroups(ivs)
	}
}

// BenchmarkServiceHour measures the full protocol cost of one simulated
// hour for an eight-server full mesh under IM (requests, replies, RTT
// measurement, rule IM-2, sampling).
func BenchmarkServiceHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		specs := make([]disttime.ServerSpec, 8)
		for j := range specs {
			drift := float64(j-4) * 1e-5
			specs[j] = disttime.ServerSpec{
				Delta:        math.Abs(drift)*1.2 + 1e-6,
				Drift:        drift,
				InitialError: 0.05,
				SyncEvery:    60,
			}
		}
		sim, err := disttime.NewSimulation(disttime.SimulationConfig{
			Seed:    uint64(i),
			Delay:   disttime.UniformDelay{Max: 0.01},
			Fn:      disttime.IM{},
			Servers: specs,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(3600)
		if s := sim.Snapshot(); !s.AllCorrect {
			b.Fatal("correctness lost")
		}
	}
}

// BenchmarkRuleMM2 measures a single rule-MM-2 pass over eight replies in
// steady state: the server is built once and repeatedly resynchronized, so
// the pass itself is what's measured (0 allocs/op).
func BenchmarkRuleMM2(b *testing.B) {
	replies := make([]disttime.Reply, 8)
	for i := range replies {
		replies[i] = disttime.Reply{From: i + 1, C: 1000.001, E: 0.5, RTT: 0.01}
	}
	s, err := disttime.NewServer(1000, disttime.ServerConfig{
		Clock:        disttime.NewDriftingClock(1000, 1000, 0),
		Delta:        1e-5,
		InitialError: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.MM{}.Sync(s, 1000, replies)
	}
}

// BenchmarkRuleIM2 measures a single rule-IM-2 pass over eight replies in
// steady state (0 allocs/op).
func BenchmarkRuleIM2(b *testing.B) {
	replies := make([]disttime.Reply, 8)
	for i := range replies {
		replies[i] = disttime.Reply{From: i + 1, C: 1000.001, E: 0.5, RTT: 0.01}
	}
	s, err := disttime.NewServer(1000, disttime.ServerConfig{
		Clock:        disttime.NewDriftingClock(1000, 1000, 0),
		Delta:        1e-5,
		InitialError: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disttime.IM{}.Sync(s, 1000, replies)
	}
}

// churnState drives BenchmarkSimEventChurn's self-rescheduling event chain
// through the closure-free AfterCall path.
type churnState struct {
	s *sim.Simulator
	n int
}

func churnTick(x any) {
	c := x.(*churnState)
	c.n++
	if c.n < 1000 {
		c.s.AfterCall(1, churnTick, c)
	}
}

// BenchmarkSimEventChurn measures the raw event kernel: a self-rescheduling
// chain of 1000 events per op, with Sim.Reset reusing one simulator across
// iterations. Steady state is allocation-free: pooled events, no heap
// interface boxing, no scheduling closures.
func BenchmarkSimEventChurn(b *testing.B) {
	c := &churnState{s: sim.New(1)}
	churn := func() {
		c.n = 0
		c.s.AfterCall(1, churnTick, c)
		c.s.Run()
	}
	churn() // warm the event pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.s.Reset(uint64(i))
		churn()
	}
}

// shardChurn is a self-rescheduling Handler for BenchmarkShardWindow:
// every event re-arms itself one virtual second later, so the kernel's
// heap stays at a constant size while windows, pushes, and pops churn.
type shardChurn struct{}

func (shardChurn) Event(p *shard.Proc, ev shard.Ev) {
	p.After(ev.Node, 1, ev.Kind, ev.Tag, ev.A, ev.B)
}

// BenchmarkShardWindow measures the sharded kernel's window loop: 64
// nodes firing one self-rescheduling timer per virtual second, 1000
// virtual seconds per op. Steady state is allocation-free — value events
// on a preallocated heap, no closures, no boxing (the //lint:noalloc
// annotations on push/pop/runWindow are audited against this benchmark).
func BenchmarkShardWindow(b *testing.B) {
	k, err := shard.New(shard.Config{Nodes: 64, Seed: 9, Handler: shardChurn{}})
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	for n := int32(0); n < 64; n++ {
		k.Seed(n, 0.5, 1, 0, 0, 0)
	}
	k.Run(1000) // warm the heap to its steady size
	until := 1000.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += 1000
		k.Run(until)
	}
}

// BenchmarkWireRoundTrip measures one request/response encode+decode
// round trip on the UDP wire path against reused buffers — the per-query
// serialization cost of the real service. 0 allocs/op; the wire codec's
// //lint:noalloc annotations are audited against this benchmark.
func BenchmarkWireRoundTrip(b *testing.B) {
	reqBuf := make([]byte, 0, wire.RequestSize)
	respBuf := make([]byte, 0, wire.ResponseSize)
	resp := wire.Response{
		ReqID:    7,
		ServerID: 3,
		Clock:    time.Unix(0, 1_700_000_000_000_000_000),
		MaxError: 250 * time.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf = wire.AppendRequest(reqBuf[:0], wire.Request{ReqID: uint64(i)})
		req, err := wire.ParseRequest(reqBuf)
		if err != nil {
			b.Fatal(err)
		}
		resp.ReqID = req.ReqID
		respBuf, err = wire.AppendResponse(respBuf[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = wire.ParseResponse(respBuf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLCClock measures one Now plus one Update on a hybrid
// logical clock — the per-event stamping cost on the message paths of
// both substrates. 0 allocs/op; the hlc clock's //lint:noalloc
// annotations are audited against this benchmark.
func BenchmarkHLCClock(b *testing.B) {
	local := hlc.New(1)
	remote := hlc.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wall := int64(1_700_000_000_000_000_000 + i)
		ts := remote.Now(wall)
		local.Update(wall, ts)
	}
}

// BenchmarkHLCCodec measures one timestamp encode+decode round trip
// against a reused buffer — the piggyback cost per wire message.
// 0 allocs/op; the hlc codec's //lint:noalloc annotations are audited
// against this benchmark.
func BenchmarkHLCCodec(b *testing.B) {
	var buf [hlc.TimestampSize]byte
	ts := hlc.Timestamp{Wall: 1_700_000_000_000_000_000, Logical: 3, Node: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Wall++
		hlc.PutTimestamp(buf[:], ts)
		got, err := hlc.ParseTimestamp(buf[:])
		if err != nil {
			b.Fatal(err)
		}
		if got != ts {
			b.Fatal("round trip changed the timestamp")
		}
	}
}

// BenchmarkWireRoundTripHLC measures one version-3 request/response
// encode+decode round trip — the per-query serialization cost with the
// HLC piggyback. 0 allocs/op; the v3 codec's //lint:noalloc
// annotations are audited against this benchmark.
func BenchmarkWireRoundTripHLC(b *testing.B) {
	reqBuf := make([]byte, 0, wire.RequestHLCSize)
	respBuf := make([]byte, 0, wire.ResponseHLCSize)
	resp := wire.ResponseHLC{
		Response: wire.Response{
			ReqID:    7,
			ServerID: 3,
			Clock:    time.Unix(0, 1_700_000_000_000_000_000),
			MaxError: 250 * time.Microsecond,
		},
		TS: hlc.Timestamp{Wall: 1_700_000_000_000_000_000, Logical: 1, Node: 3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf = wire.AppendRequestHLC(reqBuf[:0], wire.RequestHLC{
			ReqID: uint64(i),
			TS:    hlc.Timestamp{Wall: int64(i), Node: 1},
		})
		req, err := wire.ParseRequestHLC(reqBuf)
		if err != nil {
			b.Fatal(err)
		}
		resp.ReqID = req.ReqID
		respBuf, err = wire.AppendResponseHLC(respBuf[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = wire.ParseResponseHLC(respBuf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation studies (DESIGN.md A1..A5) ---

// BenchmarkAblationSelfInterval regenerates A1.
func BenchmarkAblationSelfInterval(b *testing.B) { runExperiment(b, experiments.AblationSelfInterval) }

// BenchmarkAblationInconsistentPolicy regenerates A2.
func BenchmarkAblationInconsistentPolicy(b *testing.B) {
	runExperiment(b, experiments.AblationInconsistentPolicy)
}

// BenchmarkAblationTau regenerates A3.
func BenchmarkAblationTau(b *testing.B) { runExperiment(b, experiments.AblationTau) }

// BenchmarkAblationLoss regenerates A4.
func BenchmarkAblationLoss(b *testing.B) { runExperiment(b, experiments.AblationLoss) }

// BenchmarkAblationScale regenerates A5.
func BenchmarkAblationScale(b *testing.B) { runExperiment(b, experiments.AblationScale) }

// BenchmarkAblationSlew regenerates A6.
func BenchmarkAblationSlew(b *testing.B) { runExperiment(b, experiments.AblationSlew) }

// BenchmarkRecoveryBreakdown regenerates E16 (the Section 3 breakdown
// caveat).
func BenchmarkRecoveryBreakdown(b *testing.B) { runExperiment(b, experiments.RecoveryBreakdown) }

// BenchmarkAblationErrorFloor regenerates A7.
func BenchmarkAblationErrorFloor(b *testing.B) { runExperiment(b, experiments.AblationErrorFloor) }

// BenchmarkAblationRateFilter regenerates A8 (the Section 5 defense).
func BenchmarkAblationRateFilter(b *testing.B) { runExperiment(b, experiments.AblationRateFilter) }

// BenchmarkAblationAdaptiveDelta regenerates A9 (delta maintenance).
func BenchmarkAblationAdaptiveDelta(b *testing.B) {
	runExperiment(b, experiments.AblationAdaptiveDelta)
}

// BenchmarkServeBatch measures the batched serving transform — parse a
// full batch of requests, read the per-tick cached clock, encode every
// reply into retained buffers — with no sockets in the way. It must
// report 0 allocs/op: the //lint:noalloc annotations on the serving
// path (Server.respond, Server.reading, TickCache.Now) are audited
// against this benchmark.
func BenchmarkServeBatch(b *testing.B) {
	const batch = 64
	pump := udptime.NewServeBatchBench(batch)
	if got := pump(); got != batch {
		b.Fatalf("pump answered %d of %d requests", got, batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pump() != batch {
			b.Fatal("batch not fully answered")
		}
	}
}

// BenchmarkClientQueryMany measures the client's round on real sockets:
// three version-3 requests sent and their replies matched over one
// long-lived socket, against three loopback servers. It must report
// 0 allocs/op: the //lint:noalloc annotations on the client's
// send/collect loop (clientSock.exchange, clientSock.match) are audited
// against this benchmark.
func BenchmarkClientQueryMany(b *testing.B) {
	src, err := udptime.NewSystemClock(time.Millisecond, 50)
	if err != nil {
		b.Fatal(err)
	}
	var addrs []string
	for id := uint64(1); id <= 3; id++ {
		srv, err := udptime.NewServer("127.0.0.1:0", id, src)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr().String())
	}
	client := udptime.NewClient(time.Second, nil, udptime.WithHLC(hlc.New(100)))
	defer client.Close()
	pump := udptime.NewQueryManyBench(client, addrs)
	if got := pump(); got != len(addrs) {
		b.Fatalf("%d of %d servers answered", got, len(addrs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pump() != len(addrs) {
			b.Fatal("round not fully answered")
		}
	}
	b.StopTimer() // the deferred Closes allocate, which at -benchtime=1x would show
}
