package udptime

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/interval"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// SyncOptions carries the client-side parameters of rule IM-2's
// transform.
type SyncOptions struct {
	// Delta is the local clock's drift-rate bound, dimensionless (the
	// paper's delta_i; e.g. 100e-6 for a 100 ppm oscillator). It charges
	// the transit term (1+Delta)*xi of the offset-interval transform:
	// during the xi seconds the exchange was in flight, the local clock
	// itself may have drifted by up to Delta*xi. Zero claims a perfect
	// local oscillator.
	Delta float64
}

// Measurement is one completed request/response exchange, interpreted
// against the local clock.
type Measurement struct {
	// Addr is the queried server address.
	Addr string
	// ServerID is the responder's identity.
	ServerID uint64
	// C and E are the server's reading.
	C time.Time
	E time.Duration
	// RTT is the round trip measured on the local clock (the paper's
	// xi^i_j).
	RTT time.Duration
	// LocalRecv is the local clock's value when the response arrived.
	LocalRecv time.Time
	// Delta is the local drift-rate bound in force when the measurement
	// was taken (stamped from the client's SyncOptions), so the
	// measurement carries everything rule IM-2's transform needs.
	Delta float64
	// Unsynchronized marks a reading from a server that cannot bound its
	// error.
	Unsynchronized bool
	// TS is the server's hybrid logical clock timestamp, piggybacked on
	// version-3 exchanges; zero on version-1 queries (client without
	// WithHLC).
	TS hlc.Timestamp

	// recv is the monotonic instant the response arrived, from which a
	// synchronization pass reads how long it has held the measurement.
	// Zero in a Measurement built by hand, which then never ages.
	recv time.Time
	// slot is the queried address's index in its round: a sync pass's
	// key for the reply, where ServerID is whatever the remote sent.
	slot int
}

// OffsetInterval returns the interval, in seconds, known to contain the
// true offset between the server's timeline and the local clock as the
// response arrived: rule IM-2's transform
// [C - E - local, C + E + (1+delta)*xi - local]. The server's reading was
// taken at some point during the round trip, so by arrival it can lag the
// measured receive instant by up to the full round trip plus the local
// clock's own drift over it — dropping the (1+delta) factor shrinks the
// upper edge by delta*xi and can exclude the true offset whenever xi is
// large. It credits no delay band (m = 0, M = +Inf): a real network's is
// unknown, and crediting more than it excludes the true offset. The subtraction of
// time.Time values stays in the Duration domain; core sees seconds.
func (m Measurement) OffsetInterval() interval.Interval {
	trail, lead := core.Charge(m.E.Seconds(), m.RTT.Seconds(), 0, m.Delta, 0, math.Inf(1), 0)
	lo, hi := core.Offset(m.C.Sub(m.LocalRecv).Seconds(), trail, lead, 0)
	return interval.Interval{Lo: lo, Hi: hi}
}

// clientMetrics is the resolved metric-handle set of an observed client.
// The zero value (all handles nil) is fully inert: every obs method is
// nil-safe, so Query bumps unconditionally.
type clientMetrics struct {
	queries  *obs.Counter      // udptime_client_queries_total
	errors   *obs.Counter      // udptime_client_query_errors_total
	timeouts *obs.Counter      // udptime_client_timeouts_total
	strays   *obs.Counter      // udptime_client_stray_datagrams_total
	rtt      *obs.LogHistogram // udptime_client_rtt_seconds
}

// maxIdleSocks caps the sockets a Client keeps between rounds: that many
// concurrent rounds reuse one, and any further round closes its own.
const maxIdleSocks = 4

// Client queries time servers over a few long-lived UDP sockets
// (DESIGN.md §16, "The client"). It is safe for concurrent use: one mutex
// guards the configuration and the idle sockets, and a round runs under
// the configuration it found at its start. Close releases the sockets;
// a Client dropped without Close leaves them to the finalizer the net
// package sets on every descriptor, so they last until a collection
// finds the Client unreachable.
type Client struct {
	mu     sync.Mutex
	cfg    clientConfig
	idle   []*clientSock
	closed bool
}

// clientConfig is what NewClient, its options and SetLocalClock set, and
// what one round runs under.
type clientConfig struct {
	timeout time.Duration
	local   ClockSource
	opts    SyncOptions
	metrics clientMetrics
	hclock  *hlc.Clock
}

// ClientOption configures a Client.
type ClientOption interface {
	applyClient(*Client)
}

type clientSyncOptions struct{ o SyncOptions }

func (c clientSyncOptions) applyClient(cl *Client) {
	//lint:ignore guardedby options are applied inside NewClient before the client is published, so no other goroutine can observe the write
	cl.cfg.opts = c.o
}

// WithSyncOptions sets the IM-2 transform parameters (notably the local
// drift bound Delta) applied to every measurement the client takes.
func WithSyncOptions(o SyncOptions) ClientOption { return clientSyncOptions{o: o} }

type clientHLCOption struct{ c *hlc.Clock }

func (o clientHLCOption) applyClient(cl *Client) {
	//lint:ignore guardedby options are applied inside NewClient before the client is published, so no other goroutine can observe the write
	cl.cfg.hclock = o.c
}

// WithHLC attaches a hybrid logical clock: every query switches to the
// version-3 exchange, piggybacking the client's timestamp on the request
// and folding the server's reply timestamp back in via Update, so each
// RPC is a happens-before edge. Servers predating VersionHLC reject the
// request (the client's query then times out), so enable it only against
// a v3 fleet.
func WithHLC(c *hlc.Clock) ClientOption { return clientHLCOption{c: c} }

type clientObsOption struct{ reg *obs.Registry }

func (c clientObsOption) applyClient(cl *Client) {
	if c.reg == nil {
		return
	}
	//lint:ignore guardedby options are applied inside NewClient before the client is published, so no other goroutine can observe the write
	cl.cfg.metrics = clientMetrics{
		queries:  c.reg.Counter("udptime_client_queries_total"),
		errors:   c.reg.Counter("udptime_client_query_errors_total"),
		timeouts: c.reg.Counter("udptime_client_timeouts_total"),
		strays:   c.reg.Counter("udptime_client_stray_datagrams_total"),
		rtt:      c.reg.LogHistogram("udptime_client_rtt_seconds"),
	}
}

// WithClientObservability resolves the client's metrics in reg: query,
// error, timeout, and stray-datagram counters plus a round-trip-time
// log histogram.
func WithClientObservability(reg *obs.Registry) ClientOption { return clientObsOption{reg: reg} }

// NewClient returns a client with the given per-query timeout (zero means
// one second; the queries of one round share it) measuring against local
// (nil means the system clock).
func NewClient(timeout time.Duration, local ClockSource, opts ...ClientOption) *Client {
	c := &Client{cfg: clientConfig{timeout: timeout, local: local}}
	for _, o := range opts {
		o.applyClient(c)
	}
	return c
}

// SetLocalClock replaces the clock source used for offset computation
// (nil restores the system clock).
func (c *Client) SetLocalClock(src ClockSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.local = src
}

// checkout returns the configuration and a socket for one round: an idle
// one if there is any, else a new one. The round owns the socket until
// it hands it to checkin.
func (c *Client) checkout() (clientConfig, *clientSock, error) {
	c.mu.Lock()
	cfg, closed := c.cfg, c.closed
	var s *clientSock
	if n := len(c.idle); n > 0 {
		s, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	if cfg.timeout <= 0 {
		cfg.timeout = time.Second
	}
	if closed {
		return cfg, nil, fmt.Errorf("udptime: client: %w", net.ErrClosed)
	}
	if s == nil {
		// Unconnected, on the wildcard address: one socket reaches every
		// server, of either family where the host maps IPv4 into IPv6.
		conn, err := net.ListenUDP("udp", nil)
		if err != nil {
			return cfg, nil, fmt.Errorf("udptime: client socket: %w", err)
		}
		s = &clientSock{conn: conn, rng: newReqIDRNG()}
	}
	return cfg, s, nil
}

// checkin takes back the socket of a finished round, or closes it when
// the client was closed meanwhile or already keeps maxIdleSocks.
func (c *Client) checkin(s *clientSock) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleSocks {
		c.idle, s = append(c.idle, s), nil
	}
	c.mu.Unlock()
	if s != nil {
		s.conn.Close()
	}
}

// Close closes the idle sockets; a round in flight finishes and closes
// its own. Queries started afterwards fail with an error wrapping
// net.ErrClosed. Close is idempotent and safe concurrently with queries.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	var err error
	for _, s := range idle {
		err = errors.Join(err, s.conn.Close())
	}
	return err
}

// hlcWall returns the HLC physical component for a send or receive on
// src's timeline: the reading's latest bound C+E in nanoseconds (the
// system clock with no bound when src is nil).
func hlcWall(src ClockSource) int64 {
	if src != nil {
		now, maxErr, _ := src.Now()
		return now.Add(maxErr).UnixNano()
	}
	return time.Now().UnixNano()
}

// newReqIDRNG seeds the request-ID generator from the OS entropy source,
// falling back to the wall clock (this is the real-network package, where
// reading it is legitimate). Request IDs should be unpredictable to
// off-path spoofers, and seeding from an explicit source — rather than
// the process-global math/rand generator — keeps the simulated paths'
// byte-determinism guarantee intact: nothing outside this constructor
// consumes shared randomness.
func newReqIDRNG() *rand.Rand {
	var b [16]byte
	if _, err := crand.Read(b[:]); err == nil {
		return rand.New(rand.NewPCG(
			binary.LittleEndian.Uint64(b[:8]),
			binary.LittleEndian.Uint64(b[8:])))
	}
	return rand.New(fallbackPCG(uint64(time.Now().UnixNano())))
}

// fallbackPCG derives the two PCG seed words from a single seed by
// running splitmix64 twice. The previous fallback used (seed, seed^K)
// with a fixed constant K, which ties the words together by a known
// relation an off-path spoofer could exploit; splitmix64's finalizer
// makes the two words independent-looking functions of the seed (this is
// the seeding recommended by the xoshiro/PCG authors for expanding one
// word of entropy into a full seed state).
func fallbackPCG(seed uint64) *rand.PCG {
	s1 := splitmix64(&seed)
	s2 := splitmix64(&seed)
	return rand.NewPCG(s1, s2)
}

// splitmix64 advances the state by the golden-ratio increment and
// returns the finalizer mix of the new state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func localNow(src ClockSource) time.Time {
	if src != nil {
		now, _, _ := src.Now()
		return now
	}
	return time.Now()
}

// request is one exchange of a round.
type request struct {
	id   uint64         // the token the reply must echo
	to   netip.AddrPort // where it goes, and where its reply must come from
	done bool           // answered
	err  error          // why it cannot be
	// The send instant on the monotonic clock and on the local one.
	sentMono, sentLocal time.Time
}

// clientSock is one unconnected socket with what a round on it needs:
// the request-ID generator, the requests, the two datagram buffers. The
// round owns all of it, so nothing here is locked.
type clientSock struct {
	conn *net.UDPConn
	rng  *rand.Rand
	reqs []request
	out  [wire.RequestHLCSize]byte
	in   [maxDatagram]byte
}

// resolveAddr turns addr into the endpoint a request goes to. A literal
// address is parsed in place; anything else is resolved, on every query,
// so a host name follows its record. As with net.Dial, no host or the
// unspecified address means this host.
func resolveAddr(addr string) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return netip.AddrPort{}, err
		}
		ap = ua.AddrPort()
	}
	ip := ap.Addr().Unmap()
	switch {
	case !ip.IsValid(), ip == netip.IPv4Unspecified():
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	case ip == netip.IPv6Unspecified():
		ip = netip.IPv6Loopback()
	}
	return netip.AddrPortFrom(ip, ap.Port()), nil
}

// round asks every address once, all over one socket, and leaves
// addrs[i]'s measurement in ms[i], or the zero Measurement where there
// is none. The error joins those of the requests that failed.
func (c *Client) round(addrs []string, ms []Measurement) error {
	n := len(addrs)
	if n == 0 {
		return nil
	}
	clear(ms)
	cfg, s, err := c.checkout()
	mtr := cfg.metrics
	mtr.queries.Add(uint64(n))
	if err != nil {
		mtr.errors.Add(uint64(n))
		return err
	}
	defer c.checkin(s)

	// Resolve first: a slow lookup then delays no request already sent.
	s.reqs = slices.Grow(s.reqs[:0], n)[:n]
	for i, addr := range addrs {
		s.reqs[i] = request{id: s.rng.Uint64()}
		s.reqs[i].to, s.reqs[i].err = resolveAddr(addr)
	}
	broke := s.exchange(&cfg, addrs, ms)

	var errs []error
	for i, r := range s.reqs {
		if r.done {
			mtr.rtt.Observe(ms[i].RTT.Seconds())
			continue
		}
		if r.err == nil {
			r.err = broke
		}
		mtr.errors.Inc()
		var nerr net.Error
		if errors.As(r.err, &nerr) && nerr.Timeout() {
			mtr.timeouts.Inc()
		}
		errs = append(errs, fmt.Errorf("udptime: query %q: %w", addrs[i], r.err))
	}
	return errors.Join(errs...)
}

// exchange is the wire half of a round: from the calling goroutine, send
// every request that resolved, then read replies until each is answered
// or the round's one deadline passes, which is the error it returns.
// With cfg.hclock the exchange is version 3: a request carries the
// client's timestamp, and a matched reply's is folded back in. Replies
// are read one by one, so one that queued behind another is stamped
// after it arrived: its round trip reads long, which only widens its
// offset interval.
func (s *clientSock) exchange(cfg *clientConfig, addrs []string, ms []Measurement) error {
	if err := s.conn.SetDeadline(time.Now().Add(cfg.timeout)); err != nil {
		return err
	}
	open := 0
	for i := range s.reqs {
		r := &s.reqs[i]
		if r.err != nil {
			continue
		}
		var out []byte
		if cfg.hclock != nil {
			out = wire.AppendRequestHLC(s.out[:0], wire.RequestHLC{ReqID: r.id, TS: cfg.hclock.Now(hlcWall(cfg.local))})
		} else {
			out = wire.AppendRequest(s.out[:0], wire.Request{ReqID: r.id})
		}
		// Monotonic first: a descheduling of g between the two reads then
		// lands inside RTT, and widens the offset interval by g below and
		// delta*g above. In the other order it back-dates LocalRecv by g and
		// shifts the interval off the true offset.
		r.sentMono = time.Now()
		r.sentLocal = localNow(cfg.local)
		if _, r.err = s.conn.WriteToUDPAddrPort(out, r.to); r.err == nil {
			open++
		}
	}
	for open > 0 {
		n, from, err := s.conn.ReadFromUDPAddrPort(s.in[:])
		if err != nil {
			return err
		}
		recv := time.Now()
		i, resp := s.match(cfg.hclock != nil, s.in[:n], from)
		if i < 0 {
			cfg.metrics.strays.Inc()
			continue
		}
		if cfg.hclock != nil {
			cfg.hclock.Update(hlcWall(cfg.local), resp.TS)
		}
		r := &s.reqs[i]
		r.done = true
		open--
		rtt := recv.Sub(r.sentMono)
		ms[i] = Measurement{
			Addr:           addrs[i],
			ServerID:       resp.ServerID,
			C:              resp.Clock,
			E:              resp.MaxError,
			RTT:            rtt,
			LocalRecv:      r.sentLocal.Add(rtt),
			Delta:          cfg.opts.Delta,
			Unsynchronized: resp.Unsynchronized,
			TS:             resp.TS,
			recv:           recv,
			slot:           i,
		}
	}
	return nil
}

// match returns the index of the request that the datagram b from source
// from answers, and the reply it carries; -1 for a stray. A datagram
// answers a request only if it parses as a reply of the round's wire
// version, echoes the ID of a request still outstanding, and comes from
// the address that request went to. That last check is what connect()
// had the kernel do for a socket per query: whoever sees an ID in flight
// still cannot answer for the server without forging its address.
func (s *clientSock) match(v3 bool, b []byte, from netip.AddrPort) (int, wire.ResponseHLC) {
	var resp wire.ResponseHLC
	var err error
	if v3 {
		resp, err = wire.ParseResponseHLC(b)
	} else {
		resp.Response, err = wire.ParseResponse(b)
	}
	if err == nil {
		src := from.Addr().Unmap().WithZone("")
		for i := range s.reqs {
			if r := &s.reqs[i]; !r.done && r.err == nil && r.id == resp.ReqID &&
				r.to.Port() == from.Port() && r.to.Addr().WithZone("") == src {
				return i, resp
			}
		}
	}
	return -1, resp
}

// answered moves the measurements a round filled in to the front of ms,
// in order, and returns them.
func answered(ms []Measurement) []Measurement {
	return slices.DeleteFunc(ms, func(m Measurement) bool { return m.recv.IsZero() })
}

// Query sends one time request to addr and returns the measurement.
// With WithHLC the exchange is version 3: the request carries the
// client's timestamp, the response's timestamp is folded back in.
func (c *Client) Query(addr string) (Measurement, error) {
	addrs, ms := [1]string{addr}, [1]Measurement{}
	err := c.round(addrs[:], ms[:])
	return ms[0], err
}

// QueryMany queries every address in one round: the requests go out back
// to back and the replies are collected under one timeout. It returns the
// successful measurements, in the order of addrs, and, when any query
// failed, a joined error describing the failures. Unsynchronized
// responses are returned but flagged.
func (c *Client) QueryMany(addrs []string) ([]Measurement, error) {
	ms := make([]Measurement, len(addrs))
	err := c.round(addrs, ms)
	return answered(ms), err
}

// Sync errors.
var (
	ErrNoMeasurements = errors.New("udptime: no usable measurements")
	ErrInconsistent   = errors.New("udptime: measurements mutually inconsistent")
)

// SyncIM disciplines dc with rule IM-2, bare: the synchronized
// measurements' intervals, aged to now and charged at dc's drift bound,
// intersected with the clock's own (unbounded until first set). It
// returns the applied offset interval: dc's new [C−E, C+E] less its
// reading before.
func SyncIM(dc *DisciplinedClock, ms []Measurement) (interval.Interval, error) {
	p, err := dc.sync(core.IM{}, false, ms)
	if err != nil {
		return interval.Interval{}, err
	}
	return applied(p), nil
}

// SyncSelect disciplines dc with falseticker rejection, core.SelectIM
// bare: majority selection over the same intervals and, once the clock is
// set, its own, then a reset to the selected region. Use it when some
// servers may hold invalid drift bounds (the Section 5 failure mode). The
// returned indices count the synchronized measurements of ms, in order.
func SyncSelect(dc *DisciplinedClock, ms []Measurement) (interval.Selection, error) {
	p, err := dc.sync(core.SelectIM{}, false, ms)
	if err != nil {
		return interval.Selection{}, err
	}
	sel := interval.Selection{Interval: applied(p), Falsetickers: p.Result.Inconsistent}
	for i := range p.Replies {
		if !slices.Contains(sel.Falsetickers, i) {
			sel.Survivors = append(sel.Survivors, i)
		}
	}
	return sel, nil
}
