package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/udptime"
)

// Every server binds the loopback interface: requests never cross a
// real link, so the latencies are syscall, copy and scheduling cost.
const loopback = "127.0.0.1:0"

// The servers' clocks claim an error of 1 ms that does not grow: a
// drift bound would add 50 us of E per second of run to every reading,
// and the metric would say when a probe was taken, not what the round
// trip cost. The client's oscillator is trusted to 50 ppm.
const (
	serverErr0  = time.Millisecond
	serverDrift = 0
	driftPPM    = 50
)

// w64Load is the one load shape both serving paths are measured under:
// a closed loop of 64 time clients on one socket, each waiting for its
// reply before it asks again.
func w64Load(addr string, d time.Duration, reg *obs.Registry) udptime.LoadConfig {
	return udptime.LoadConfig{
		Addr: addr, Conns: 1, Window: 64, Batch: 64,
		Duration: d, Timeout: time.Second, Registry: reg,
	}
}

// The UDP workloads cut a pass into short trials: the host slows for
// seconds at a time, and fifty trials of 0.3 s leave more of them
// undisturbed than ten of 1.5 s. The traced pass runs two longer ones,
// a plain and a traced, and reads one against the other.
const (
	udpTrial       = 300 * time.Millisecond
	udpTracedTrial = 1500 * time.Millisecond
)

// udpTrials is how many trials of length each fit in the pass.
func (p *pass) udpTrials() (trials int, each time.Duration) {
	if p.traced() {
		return 2, udpTracedTrial
	}
	return max(3, int(p.seconds/udpTrial.Seconds())), udpTrial
}

// timeServer is what the w64 workloads use of either serving path.
type timeServer interface {
	Addr() *net.UDPAddr
	Requests() uint64
	MalformedDatagrams() uint64
	Close() error
}

func serverClock() (*udptime.SystemClock, error) {
	return udptime.NewSystemClock(serverErr0, serverDrift)
}

func newBatched(reg *obs.Registry) (timeServer, error) {
	src, err := serverClock()
	if err != nil {
		return nil, err
	}
	return udptime.NewBatchServer(loopback, 1, src, udptime.BatchConfig{Shards: 1, Batch: 64, Registry: reg})
}

func newClassic(reg *obs.Registry) (timeServer, error) {
	src, err := serverClock()
	if err != nil {
		return nil, err
	}
	return udptime.NewServer(loopback, 1, src, udptime.WithServerObservability(reg))
}

// contained is the paper's oracle on a real socket: the server read its
// clock between send and receive, so its interval [C-E, C+E] must reach
// back to the receive instant and forward to the send instant, both
// taken on the host clock the servers also read.
func contained(m udptime.Measurement, send, recv time.Time) bool {
	return !m.C.Add(-m.E).After(recv) && !m.C.Add(m.E).Before(send)
}

// probes tallies what lone Client.Query calls saw of a w64 server: what
// one answer is worth to a client, and whether the oracle held. An
// uncontained answer is counted, never fatal. The batched server
// answers from a reading its TickCache refreshes every millisecond and
// widens by one tick; whenever the refresher goroutine runs late — at
// capacity on two cores it often does, and on a shared host even at a
// cold start — the reading is staler than its widening and the interval
// ends before the request was sent. The benchmark reports that; it does
// not flap on it. The classic server reads its clock per request, and
// udp_sync_v3 holds it to the oracle on every measurement.
type probes struct {
	widths      []float64 // seconds: half-width of each offset interval, E + (1+delta)xi/2
	uncontained int       // answers whose [C-E, C+E] missed [send, recv]
	worstLag    float64   // seconds: how far the worst of them missed by
}

// ask queries addr once and tallies the answer.
func (pr *probes) ask(cl *udptime.Client, addr string) error {
	send := time.Now()
	m, err := cl.Query(addr)
	recv := time.Now()
	if err != nil {
		return err
	}
	pr.widths = append(pr.widths, m.OffsetInterval().HalfWidth())
	if !contained(m, send, recv) {
		pr.uncontained++
		lag := math.Max(send.Sub(m.C.Add(m.E)).Seconds(), m.C.Add(-m.E).Sub(recv).Seconds())
		pr.worstLag = math.Max(pr.worstLag, lag)
	}
	return nil
}

func (pr *probes) merge(o probes) {
	pr.widths = append(pr.widths, o.widths...)
	pr.uncontained += o.uncontained
	pr.worstLag = math.Max(pr.worstLag, o.worstLag)
}

// probeUnderLoad asks addr every 10 ms until stop closes. A probe lost
// to a timeout is not tallied: the load's own timeouts count lost
// datagrams.
func probeUnderLoad(cl *udptime.Client, addr string, stop <-chan struct{}, out chan<- probes) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var pr probes
	for {
		select {
		case <-stop:
			out <- pr
			return
		case <-tick.C:
			_ = pr.ask(cl, addr)
		}
	}
}

// udpW64 measures one serving path at capacity: the batched server, or
// the classic per-packet one.
func udpW64(batched bool) func(*pass) error {
	newServer, layerPrefix := newClassic, "udptime.server."
	if batched {
		newServer, layerPrefix = newBatched, "udptime.batchserver."
	}
	return func(p *pass) error {
		if need := 2; runtime.NumCPU() < need && !p.smoke {
			return fmt.Errorf("%s needs %d CPUs (one server shard, one load connection), have %d", p.name, need, runtime.NumCPU())
		}
		cl := udptime.NewClient(time.Second, nil, udptime.WithSyncOptions(udptime.SyncOptions{Delta: driftPPM * 1e-6}))
		var all probes

		// Set-up is a cold start: bind, one checked answer, and the first
		// 4096 requests of the load. Bind and probe alone take 60 us,
		// which on a shared host measures where a goroutine woke up.
		err := p.setupSamples(func() error {
			srv, err := newServer(nil)
			if err != nil {
				return err
			}
			defer srv.Close()
			addr := srv.Addr().String()
			if err := all.ask(cl, addr); err != nil {
				return fmt.Errorf("%s: no answer after set-up: %w", p.name, err)
			}
			cold := w64Load(addr, time.Second, nil)
			cold.MaxRequests = 4096
			if _, err := udptime.RunLoad(cold); err != nil {
				return err
			}
			return srv.Close()
		})
		if err != nil {
			return err
		}

		srvReg := obs.NewRegistry()
		srv, err := newServer(srvReg)
		if err != nil {
			return err
		}
		defer srv.Close()
		addr := srv.Addr().String()

		trials, each := p.udpTrials()
		warm := 500 * time.Millisecond
		if p.smoke {
			trials, each, warm = 2, 100*time.Millisecond, 20*time.Millisecond
		}
		if _, err := udptime.RunLoad(w64Load(addr, warm, nil)); err != nil {
			return err
		}

		var received uint64
		var before procStats
		for i := 0; i < trials; i++ {
			rec, plain := p.rec, p.traced() && i == 0
			if plain {
				rec = nil // the trial tracing overhead is read against
				before = readProc()
			}
			sp := rec.begin(p.root, fmt.Sprintf("trial[%d]", i))
			reg := obs.NewRegistry()
			stop, probed := make(chan struct{}), make(chan probes, 1)
			go probeUnderLoad(cl, addr, stop, probed)
			t0 := time.Now()
			res, err := udptime.RunLoad(w64Load(addr, each, reg))
			rec.add(sp, "udptime.RunLoad", t0, time.Now())
			close(stop)
			pr := <-probed
			rec.end(sp)
			if err != nil {
				return err
			}
			received += res.Received
			p.attempted += res.Sent
			p.failed += res.Timeouts + res.Strays + res.Errors
			lat := reg.LogHistogram("timeload_latency_seconds").Buckets()
			t := trial{
				ops: float64(res.Received), wall: res.Elapsed.Seconds(),
				p50: bucketQuantile(lat, 0.50), p99: bucketQuantile(lat, 0.99), e: median(pr.widths),
			}
			all.merge(pr)
			p.keep(t, plain)
			if plain {
				p.procLayer(before, float64(res.Received))
				p.layer["udptime.loadgen.timeouts"] = float64(res.Timeouts)
				p.layer["udptime.loadgen.strays"] = float64(res.Strays)
				p.layer["udptime.loadgen.p999_us"] = bucketQuantile(lat, 0.999) * 1e6
				p.layer[layerPrefix+"ns_per_req"] = 1e9 / (float64(res.Received) / res.Elapsed.Seconds())
			}
		}
		p.check(srv.Requests() >= received, "server answered %d requests, generator received %d", srv.Requests(), received)
		p.check(srv.MalformedDatagrams() == 0, "server saw %d malformed datagrams", srv.MalformedDatagrams())
		p.info["probes"], p.info["uncontained_probes"] = fmt.Sprint(len(all.widths)), fmt.Sprint(all.uncontained)

		if p.traced() {
			p.layer["udptime.probe.uncontained_pct"] = 100 * ratio(float64(all.uncontained), float64(len(all.widths)))
			p.layer["udptime.probe.worst_lag_us"] = all.worstLag * 1e6
			p.layer["udptime.server.malformed"] = float64(srv.MalformedDatagrams())
			if b := srvReg.Counter("udptime_server_batches_total").Value(); b > 0 {
				p.layer["udptime.batchserver.reqs_per_batch"] =
					float64(srvReg.Counter("udptime_server_requests_total").Value()) / float64(b)
			}
			// One client, one request in flight: what batching costs when
			// there is nothing to batch.
			reg := obs.NewRegistry()
			cfg := w64Load(addr, time.Second, reg)
			cfg.Window, cfg.Batch = 1, 1
			if p.smoke {
				cfg.Duration = 20 * time.Millisecond
			}
			sp := p.rec.begin(p.root, "rtt1")
			_, err := udptime.RunLoad(cfg)
			p.rec.end(sp)
			if err != nil {
				return err
			}
			h := reg.LogHistogram("timeload_latency_seconds")
			p.layer[layerPrefix+"rtt1_us"] = ratio(h.Sum(), float64(h.Count())) * 1e6
			p.stagesServing(batched, layerPrefix)
		}
		sp := p.rec.begin(p.root, "teardown")
		err = srv.Close()
		p.rec.end(sp)
		return err
	}
}

// syncBed is what udp_sync_v3 runs on: three classic servers and one
// client that speaks wire v3.
type syncBed struct {
	srvs  []*udptime.Server
	addrs []string
	cl    *udptime.Client

	inconsistent int // rounds whose answers SyncIM could not intersect
}

func newSyncBed() (*syncBed, error) {
	b := &syncBed{}
	for id := uint64(1); id <= 3; id++ {
		src, err := serverClock()
		if err != nil {
			b.close()
			return nil, err
		}
		s, err := udptime.NewServer(loopback, id, src)
		if err != nil {
			b.close()
			return nil, err
		}
		b.srvs, b.addrs = append(b.srvs, s), append(b.addrs, s.Addr().String())
	}
	b.cl = udptime.NewClient(time.Second, nil,
		udptime.WithSyncOptions(udptime.SyncOptions{Delta: driftPPM * 1e-6}),
		udptime.WithHLC(hlc.New(100)))
	return b, nil
}

func (b *syncBed) close() error {
	var first error
	for _, s := range b.srvs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// round is one synchronization of a clock that has never been set: ask
// the three servers, check every answer against the host clock,
// intersect, reset. It returns how long the round took and the error
// the client is left with, both in seconds. The clock is new each round
// because every clock in this process reads the same host clock: a
// clock kept across rounds intersects with its own earlier interval,
// its error ratchets down round by round (30 % apart between identical
// runs), and the slack left for a late measurement shrinks with it
// until a round cannot intersect at all.
// A query that times out is a failed operation, not a failed run. A
// round whose intervals do not intersect is counted apart, in
// udptime.sync.inconsistent_rounds: it happens about once in four
// million queries on this host, when the client goroutine is
// descheduled for milliseconds between the two clock reads at the top
// of Client.query (local clock, then monotonic), which puts LocalRecv
// that far in the past. Counting it in failed would make one run in
// twelve differ from the next by one failure.
func (b *syncBed) round(p *pass, rec *recorder, parent int) (lat, e float64, ok bool) {
	dc, err := udptime.NewDisciplinedClock(driftPPM)
	if err != nil {
		panic(err) // driftPPM is a constant of the benchmark
	}
	b.cl.SetLocalClock(dc)
	t0 := time.Now()
	ms, qerr := b.cl.QueryMany(b.addrs)
	t1 := time.Now()
	iv, serr := udptime.SyncIM(dc, ms)
	t2 := time.Now()
	p.attempted += uint64(len(b.addrs))
	p.failed += uint64(len(b.addrs) - len(ms))
	for _, m := range ms {
		if !contained(m, t0, t1) {
			p.failed++
			p.broken = append(p.broken, fmt.Sprintf("reply of server %d: [C-E, C+E] = [%v, %v] misses [send, recv] = [%v, %v]",
				m.ServerID, m.C.Add(-m.E), m.C.Add(m.E), t0, t1))
		}
	}
	if rec != nil {
		sp := rec.add(parent, "round", t0, t2)
		rec.add(sp, "QueryMany", t0, t1)
		rec.add(sp, "SyncIM", t1, t2)
	}
	if qerr == nil && serr != nil {
		b.inconsistent++
	}
	return t2.Sub(t0).Seconds(), iv.HalfWidth(), qerr == nil && serr == nil
}

// udpSyncV3 is the paper's operation on real sockets, one round at a
// time: low-load latency, where the w64 workloads measure capacity.
func udpSyncV3(p *pass) error {
	// Set-up is a cold start: three servers bound and the first 128
	// rounds done.
	err := p.setupSamples(func() error {
		b, err := newSyncBed()
		if err != nil {
			return err
		}
		defer b.close()
		for i := 0; i < 128; i++ {
			if _, _, ok := b.round(p, nil, 0); !ok && i == 0 {
				return fmt.Errorf("%s: the first round after set-up failed", p.name)
			}
		}
		return b.close()
	})
	if err != nil {
		return err
	}

	b, err := newSyncBed()
	if err != nil {
		return err
	}
	defer b.close()

	trials, each := p.udpTrials()
	warm := 300 * time.Millisecond
	if p.smoke {
		trials, each, warm = 2, 30*time.Millisecond, 10*time.Millisecond
	}
	for end := time.Now().Add(warm); time.Now().Before(end); {
		b.round(p, nil, 0)
	}

	var before procStats
	for i := 0; i < trials; i++ {
		rec, plain := p.rec, p.traced() && i == 0
		if plain {
			rec = nil
			before = readProc()
		}
		sp := rec.begin(p.root, fmt.Sprintf("trial[%d]", i))
		var lats, es []float64
		t0 := time.Now()
		for end := t0.Add(each); time.Now().Before(end); {
			if lat, e, ok := b.round(p, rec, sp); ok {
				lats, es = append(lats, lat), append(es, e)
			}
		}
		wall := time.Since(t0).Seconds()
		rec.end(sp)
		if len(lats) == 0 {
			return fmt.Errorf("%s: no round of trial %d succeeded", p.name, i)
		}
		n := float64(len(lats))
		t := trial{ops: n, wall: wall, p50: quantile(lats, 0.50), p99: quantile(lats, 0.99), e: median(es)}
		p.keep(t, plain)
		if plain {
			p.procLayer(before, n)
		}
	}
	for _, s := range b.srvs {
		p.check(s.MalformedDatagrams() == 0, "server saw %d malformed datagrams", s.MalformedDatagrams())
	}
	p.info["inconsistent_rounds"] = fmt.Sprint(b.inconsistent)

	if p.traced() {
		qm, _ := meanSpanSeconds(p.rec.spans, "QueryMany")
		si, _ := meanSpanSeconds(p.rec.spans, "SyncIM")
		p.layer["udptime.sync.inconsistent_rounds"] = float64(b.inconsistent)
		p.layer["udptime.client.querymany_us"] = qm * 1e6
		p.layer["udptime.syncim_us"] = si * 1e6
		// The servers' E is the constant serverErr0; what the client is
		// left with beyond it is the transit charge the intersection kept.
		p.layer["udptime.sync.charge_p50_us"] = (p.trials[0].e - serverErr0.Seconds()) * 1e6
		// One query at a time: the socket-per-query client on its own.
		queries := 2000
		if p.smoke {
			queries = 20
		}
		sp := p.rec.begin(p.root, "queries")
		pb := readProc()
		for i := 0; i < queries; i++ {
			if _, err := b.cl.Query(b.addrs[0]); err != nil {
				return err
			}
		}
		pa := readProc()
		p.rec.end(sp)
		p.layer["udptime.client.query_us"] = pa.at.Sub(pb.at).Seconds() / float64(queries) * 1e6
		p.layer["udptime.client.allocs_per_query"] = float64(pa.mallocs-pb.mallocs) / float64(queries)
		p.stagesSync()
	}
	sp := p.rec.begin(p.root, "teardown")
	err = b.close()
	p.rec.end(sp)
	return err
}
