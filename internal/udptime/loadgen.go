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
	// Timeout is how long a request may go unanswered (default one
	// second). A request still in flight this long after it was sent is
	// declared timed out and its window slot reused, within 1.25×Timeout
	// of its send, while the rest of the window keeps cycling; a window
	// that gets no reply at all for Timeout is declared lost whole. A
	// late reply to a timed-out request counts as a stray.
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
//
// The generator stamps trains, not requests, as a batch server reads
// its clock once per batch: one host-clock reading after a batch is
// filled and before it is handed to the kernel, shared by every request
// of the batch, and one right after a receive returns, shared by every
// reply it read. Every request of the batch enters the kernel after its
// send stamp, and every reply of the receive arrived before the receive
// stamp, so each recorded latency brackets its exchange; the
// generator's own fill and parse work stays outside it. Replies of one
// receive with one send stamp have one latency and are filed in the
// histogram as one run.
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

	// Requests differ only in their IDs: each is a copy of this one with
	// its ID written in.
	tmpl := wire.AppendRequest(nil, wire.Request{})

	launch := func() error {
		for nFree > 0 {
			want := g.reserve(min(nFree, g.cfg.Batch))
			if want == 0 {
				break
			}
			nFree -= want
			popped := free[nFree : nFree+want]
			bt.train = bt.train[:0]
			for j, slot := range popped {
				id := (rng.Uint64() &^ uint64(slotMask)) | uint64(slot)
				ids[slot] = id
				inflight[slot] = true
				out := append(bt.train, tmpl...)
				wire.PutReqID(out[len(bt.train):], id)
				bt.put(j, out)
			}
			// One send stamp for the batch: filled before it, in the
			// kernel after it (RunLoad's bracketing argument).
			stamp := time.Now()
			for _, slot := range popped {
				sentAt[slot] = stamp
			}
			nInflight += want
			if _, err := bc.Send(want); err != nil {
				return err
			}
			g.sent.Add(uint64(want))
			g.reqs.Add(uint64(want))
		}
		return nil
	}

	release := func(slot int) {
		inflight[slot] = false
		free[nFree] = slot
		nFree++
		nInflight--
	}

	// expire declares lost every in-flight request sent at least age
	// before now and frees its slot; a late reply to it is a stray.
	expire := func(now time.Time, age time.Duration) {
		var lost uint64
		for slot, busy := range inflight {
			if busy && now.Sub(sentAt[slot]) >= age {
				release(slot)
				lost++
			}
		}
		g.timeouts.Add(lost)
		g.tmo.Add(lost)
	}

	// now is the latest receive stamp: every reply's latency, the end of
	// the run and the next read deadline are measured from it. A scan for
	// lost requests runs at most every Timeout/4, so one is declared
	// within 1.25×Timeout of its send at no cost a reply would notice.
	now := time.Now()
	scanEvery := g.cfg.Timeout / 4
	nextScan := now.Add(scanEvery)
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
		deadline := now.Add(g.cfg.Timeout)
		if hard := g.end.Add(g.cfg.Timeout); deadline.After(hard) {
			deadline = hard
		}
		_ = bc.SetReadDeadline(deadline)
		n, err := bc.Recv()
		now = time.Now()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// Nothing came back at all: declare the whole outstanding
				// window lost and re-arm.
				expire(now, 0)
				if now.After(g.end) {
					return nil
				}
				continue
			}
			g.errs.Add(1)
			return fmt.Errorf("udptime: load: recv: %w", err)
		}
		completed := 0
		var run time.Time // the send stamp of the replies in runLen
		var runLen uint64
		for i := 0; i < n; i++ {
			// Only the ID is read: a reply is held to the rules of
			// ParseResponse, but its reading is not decoded.
			id, err := wire.ResponseID(bt.recv[i])
			if err != nil {
				g.strays.Add(1)
				g.stray.Inc()
				continue
			}
			slot := int(id & slotMask)
			if slot >= w || !inflight[slot] || ids[slot] != id {
				g.strays.Add(1)
				g.stray.Inc()
				continue
			}
			if at := sentAt[slot]; !at.Equal(run) {
				g.latency.ObserveN(now.Sub(run).Seconds(), runLen)
				run, runLen = at, 0
			}
			runLen++
			release(slot)
			completed++
		}
		g.latency.ObserveN(now.Sub(run).Seconds(), runLen)
		if completed > 0 {
			g.received.Add(uint64(completed))
			g.replies.Add(uint64(completed))
		}
		if !now.Before(nextScan) {
			expire(now, g.cfg.Timeout)
			nextScan = now.Add(scanEvery)
		}
		if now.After(g.end) {
			if nInflight == 0 {
				return nil
			}
			// Stop launching; drain the remaining window briefly.
			nFree = 0
		}
	}
}
