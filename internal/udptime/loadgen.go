package udptime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disttime/internal/obs"
	"disttime/internal/wire"
)

// LoadConfig configures a closed-loop load run against a live server.
type LoadConfig struct {
	// Addr is the server address ("host:port").
	Addr string
	// Conns is the number of concurrent client sockets (default 1).
	Conns int
	// Window is the number of in-flight requests per connection — the
	// closed-loop concurrency (default 32). A new request is issued only
	// when an outstanding one completes. Values above MaxWindow are
	// rejected: the window slot rides in the request ID's low bits, and a
	// wider window would alias two in-flight slots onto one bit pattern
	// and misattribute their replies.
	Window int
	// Batch is the I/O batch size per connection (default 32).
	Batch int
	// Duration bounds the run (default one second when MaxRequests is
	// also zero).
	Duration time.Duration
	// MaxRequests, when nonzero, stops the run after that many requests
	// have been issued in total — the fixed-work mode the benchmarks
	// use so ns/op is comparable across serving paths.
	MaxRequests uint64
	// Timeout is the stall timeout: a window with no reply for this
	// long is declared timed out and re-armed (default one second).
	Timeout time.Duration
	// Registry resolves the run's metrics: request/reply/timeout/stray
	// counters and the timeload_latency_seconds HDR histogram the
	// percentiles are computed from. Nil uses a private registry.
	Registry *obs.Registry
}

// LoadResult summarizes a load run.
type LoadResult struct {
	Sent     uint64
	Received uint64
	Timeouts uint64
	Strays   uint64
	Errors   uint64
	Elapsed  time.Duration
	// QPS is completed requests per second of elapsed wall time.
	QPS float64
	// Latency percentiles (upper bounds from the HDR histogram).
	P50, P90, P99, P999 time.Duration
}

// MaxWindow is the largest per-connection Window RunLoad accepts. Reply
// routing embeds the window slot in the request ID's low ten bits
// (slotMask in runConn), so this is a wire-format constant, not a tuning
// default: a window of MaxWindow+1 would give two slots the same low
// bits and a reply for one would complete (and time) the other.
const MaxWindow = 1024

// loadGen is the shared state of one RunLoad invocation.
type loadGen struct {
	cfg    LoadConfig
	raddr  *net.UDPAddr
	end    time.Time
	budget atomic.Uint64 // requests issued, bounded by cfg.MaxRequests

	sent, received, timeouts, strays, errs atomic.Uint64

	latency *obs.LogHistogram
	reqs    *obs.Counter
	replies *obs.Counter
	tmo     *obs.Counter
	stray   *obs.Counter
}

// RunLoad drives a closed-loop load run: Conns sockets each keep Window
// requests in flight, batching sends and receives, until Duration
// elapses or MaxRequests have been issued. Latencies are recorded into
// the registry's timeload_latency_seconds histogram; the returned
// result carries throughput and the p50/p90/p99/p999 upper bounds.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Addr == "" {
		return LoadResult{}, errors.New("udptime: load: empty server address")
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return LoadResult{}, fmt.Errorf("udptime: load: resolve %q: %w", cfg.Addr, err)
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Window > MaxWindow {
		// Refuse rather than clamp: a silently narrowed window changes the
		// measured concurrency, which is the one knob a load run is about.
		return LoadResult{}, fmt.Errorf("udptime: load: window %d exceeds MaxWindow %d (slot bits in the request ID)",
			cfg.Window, MaxWindow)
	}
	cfg.Batch = clampBatch(cfg.Batch)
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Duration <= 0 {
		if cfg.MaxRequests > 0 {
			cfg.Duration = 30 * time.Second // safety bound in fixed-work mode
		} else {
			cfg.Duration = time.Second
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &loadGen{
		cfg:     cfg,
		raddr:   raddr,
		latency: reg.LogHistogram("timeload_latency_seconds"),
		reqs:    reg.Counter("timeload_requests_total"),
		replies: reg.Counter("timeload_replies_total"),
		tmo:     reg.Counter("timeload_timeouts_total"),
		stray:   reg.Counter("timeload_strays_total"),
	}

	start := time.Now()
	g.end = start.Add(cfg.Duration)
	var wg sync.WaitGroup
	connErrs := make([]error, cfg.Conns)
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			connErrs[i] = g.runConn()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{
		Sent:     g.sent.Load(),
		Received: g.received.Load(),
		Timeouts: g.timeouts.Load(),
		Strays:   g.strays.Load(),
		Errors:   g.errs.Load(),
		Elapsed:  elapsed,
		P50:      secondsToDuration(g.latency.Quantile(0.50)),
		P90:      secondsToDuration(g.latency.Quantile(0.90)),
		P99:      secondsToDuration(g.latency.Quantile(0.99)),
		P999:     secondsToDuration(g.latency.Quantile(0.999)),
	}
	if elapsed > 0 {
		res.QPS = float64(res.Received) / elapsed.Seconds()
	}
	return res, errors.Join(connErrs...)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// reserve claims up to want requests from the global budget, returning
// how many may actually be issued.
func (g *loadGen) reserve(want int) int {
	if g.cfg.MaxRequests == 0 {
		return want
	}
	got := g.budget.Add(uint64(want))
	if got <= g.cfg.MaxRequests {
		return want
	}
	over := got - g.cfg.MaxRequests
	if over >= uint64(want) {
		return 0
	}
	return want - int(over)
}

// runConn is one connection's closed loop.
func (g *loadGen) runConn() error {
	conn, err := net.DialUDP("udp", nil, g.raddr)
	if err != nil {
		g.errs.Add(1)
		return fmt.Errorf("udptime: load: dial %v: %w", g.raddr, err)
	}
	_ = conn.SetReadBuffer(1 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	// Requests are all one size and a connected socket has a single
	// peer, so whole windows can leave as GSO super-datagrams.
	bc, err := newBatchConn(conn, g.cfg.Batch, true)
	if err != nil {
		conn.Close()
		g.errs.Add(1)
		return fmt.Errorf("udptime: load: raw conn: %w", err)
	}
	defer bc.Close()
	bt := bc.Batch()

	w := g.cfg.Window
	rng := newReqIDRNG()
	ids := make([]uint64, w)
	sentAt := make([]time.Time, w)
	inflight := make([]bool, w)
	free := make([]int, w) // stack of free window slots
	for i := range free {
		free[i] = w - 1 - i
	}
	nFree, nInflight := w, 0

	// slotMask embeds the window slot in the request ID's low bits so a
	// reply resolves its slot without a map lookup; the remaining 54
	// random bits still defeat off-path spoofing. RunLoad rejects
	// Window > MaxWindow, so slots fit the mask exactly.
	const slotMask = MaxWindow - 1

	launch := func() error {
		for nFree > 0 {
			want := nFree
			if want > g.cfg.Batch {
				want = g.cfg.Batch
			}
			want = g.reserve(want)
			if want == 0 {
				break
			}
			for j := 0; j < want; j++ {
				slot := free[nFree-1]
				nFree--
				nInflight++
				id := (rng.Uint64() &^ uint64(slotMask)) | uint64(slot)
				ids[slot] = id
				inflight[slot] = true
				sentAt[slot] = time.Now()
				bt.send[j] = wire.AppendRequest(bt.send[j][:0], wire.Request{ReqID: id})
			}
			if err := bc.Send(want); err != nil {
				return err
			}
			g.sent.Add(uint64(want))
			g.reqs.Add(uint64(want))
		}
		return nil
	}

	for {
		if err := launch(); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			g.errs.Add(1)
			return err
		}
		if nInflight == 0 {
			// Nothing outstanding: done, or the budget is spent.
			if time.Now().After(g.end) || (g.cfg.MaxRequests > 0 && g.budget.Load() >= g.cfg.MaxRequests) {
				return nil
			}
			continue
		}
		deadline := time.Now().Add(g.cfg.Timeout)
		if hard := g.end.Add(g.cfg.Timeout); deadline.After(hard) {
			deadline = hard
		}
		_ = bc.SetReadDeadline(deadline)
		n, err := bc.Recv()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// Declare the whole outstanding window lost and re-arm;
				// late replies will be counted as strays.
				g.timeouts.Add(uint64(nInflight))
				g.tmo.Add(uint64(nInflight))
				for slot := range inflight {
					if inflight[slot] {
						inflight[slot] = false
						free[nFree] = slot
						nFree++
						nInflight--
					}
				}
				if time.Now().After(g.end) {
					return nil
				}
				continue
			}
			g.errs.Add(1)
			return fmt.Errorf("udptime: load: recv: %w", err)
		}
		completed := 0
		for i := 0; i < n; i++ {
			resp, err := wire.ParseResponse(bt.recv[i])
			if err != nil {
				g.strays.Add(1)
				g.stray.Inc()
				continue
			}
			slot := int(resp.ReqID & slotMask)
			if slot >= w || !inflight[slot] || ids[slot] != resp.ReqID {
				g.strays.Add(1)
				g.stray.Inc()
				continue
			}
			g.latency.Observe(time.Since(sentAt[slot]).Seconds())
			inflight[slot] = false
			free[nFree] = slot
			nFree++
			nInflight--
			completed++
		}
		if completed > 0 {
			g.received.Add(uint64(completed))
			g.replies.Add(uint64(completed))
		}
		if time.Now().After(g.end) && nInflight == 0 {
			return nil
		}
		if time.Now().After(g.end) {
			// Stop launching; drain the remaining window briefly.
			nFree = 0
		}
	}
}
