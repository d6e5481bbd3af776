package udptime

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"disttime/internal/core"
	"disttime/internal/hlc"
	"disttime/internal/interval"
	"disttime/internal/ntp"
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
}

// OffsetInterval returns the interval, in seconds, known to contain the
// true offset between the server's timeline and the local clock as the
// response arrived: rule IM-2's transform
// [C - E - local, C + E + (1+delta)*xi - local]. The server's reading was
// taken at some point during the round trip, so by arrival it can lag the
// measured receive instant by up to the full round trip plus the local
// clock's own drift over it — dropping the (1+delta) factor shrinks the
// upper edge by delta*xi and can exclude the true offset whenever xi is
// large.
func (m Measurement) OffsetInterval() interval.Interval { return m.offsetAt(m.recv) }

// offsetAt is OffsetInterval as it must be treated at the monotonic
// instant now: while the measurement was held the local clock may have
// drifted by Delta per second against the server's, so both edges move
// out by Delta*age (core.Charge). The subtraction of time.Time values
// stays in the Duration domain; core sees seconds.
func (m Measurement) offsetAt(now time.Time) interval.Interval {
	var age time.Duration
	if !m.recv.IsZero() {
		age = now.Sub(m.recv)
	}
	trail, lead := core.Charge(m.E.Seconds(), m.RTT.Seconds(), age.Seconds(), m.Delta)
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

// Client queries time servers. It is safe for concurrent use: all
// mutable state — the request-ID generator, the timeout, the local clock
// source, the sync options, and the metric handles — is guarded by one
// mutex, and Query reads a consistent snapshot of the configuration at
// its start.
type Client struct {
	mu         sync.Mutex
	timeoutDur time.Duration
	local      ClockSource
	opts       SyncOptions
	metrics    clientMetrics
	rng        *rand.Rand
	hclock     *hlc.Clock
}

// ClientOption configures a Client.
type ClientOption interface {
	applyClient(*Client)
}

type clientSyncOptions struct{ o SyncOptions }

func (c clientSyncOptions) applyClient(cl *Client) {
	//lint:ignore guardedby options are applied inside NewClient before the client is published, so no other goroutine can observe the write
	cl.opts = c.o
}

// WithSyncOptions sets the IM-2 transform parameters (notably the local
// drift bound Delta) applied to every measurement the client takes.
func WithSyncOptions(o SyncOptions) ClientOption { return clientSyncOptions{o: o} }

type clientHLCOption struct{ c *hlc.Clock }

func (o clientHLCOption) applyClient(cl *Client) {
	//lint:ignore guardedby options are applied inside NewClient before the client is published, so no other goroutine can observe the write
	cl.hclock = o.c
}

// WithHLC attaches a hybrid logical clock: every query switches to the
// version-3 exchange, piggybacking the client's timestamp on the request
// and folding the server's reply timestamp back in via Update, so each
// RPC is a happens-before edge. Servers predating VersionHLC reject the
// request (the client's query then times out), so enable it only against
// a v3 fleet.
func WithHLC(c *hlc.Clock) ClientOption { return clientHLCOption{c: c} }

type clientObsOption struct{ reg *obs.Registry }

func (c clientObsOption) applyClient(cl *Client) { cl.resolveMetrics(c.reg) }

// WithClientObservability resolves the client's metrics in reg: query,
// error, timeout, and stray-datagram counters plus a round-trip-time
// log histogram.
func WithClientObservability(reg *obs.Registry) ClientOption { return clientObsOption{reg: reg} }

// NewClient returns a client with the given per-query timeout (zero means
// one second) measuring against local (nil means the system clock).
func NewClient(timeout time.Duration, local ClockSource, opts ...ClientOption) *Client {
	c := &Client{
		timeoutDur: timeout,
		local:      local,
		rng:        newReqIDRNG(),
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	return c
}

// SetTimeout replaces the per-query timeout (zero restores the default
// one second). Safe to call concurrently with queries in flight; only
// queries started afterwards observe the new value.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeoutDur = d
}

// SetLocalClock replaces the clock source used for offset computation
// (nil restores the system clock).
func (c *Client) SetLocalClock(src ClockSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.local = src
}

// SetSyncOptions replaces the IM-2 transform parameters.
func (c *Client) SetSyncOptions(o SyncOptions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts = o
}

// Observe resolves the client's metrics in reg (see
// WithClientObservability). A nil registry detaches the handles.
func (c *Client) Observe(reg *obs.Registry) { c.resolveMetrics(reg) }

func (c *Client) resolveMetrics(reg *obs.Registry) {
	var m clientMetrics
	if reg != nil {
		m = clientMetrics{
			queries:  reg.Counter("udptime_client_queries_total"),
			errors:   reg.Counter("udptime_client_query_errors_total"),
			timeouts: reg.Counter("udptime_client_timeouts_total"),
			strays:   reg.Counter("udptime_client_stray_datagrams_total"),
			rtt:      reg.LogHistogram("udptime_client_rtt_seconds"),
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = m
}

// config returns a consistent snapshot of the client's configuration.
func (c *Client) config() (time.Duration, ClockSource, SyncOptions, clientMetrics, *hlc.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.timeoutDur
	if d <= 0 {
		d = time.Second
	}
	return d, c.local, c.opts, c.metrics, c.hclock
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

func (c *Client) nextReqID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = newReqIDRNG()
	}
	return c.rng.Uint64()
}

// Query sends one time request to addr and returns the measurement.
// With WithHLC the exchange is version 3: the request carries the
// client's timestamp, the response's timestamp is folded back in.
func (c *Client) Query(addr string) (Measurement, error) {
	timeout, local, opts, mtr, hclock := c.config()
	mtr.queries.Inc()
	m, err := c.query(addr, timeout, local, opts, mtr, hclock)
	if err != nil {
		mtr.errors.Inc()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			mtr.timeouts.Inc()
		}
		return Measurement{}, err
	}
	mtr.rtt.Observe(m.RTT.Seconds())
	return m, nil
}

func (c *Client) query(addr string, timeout time.Duration, local ClockSource, opts SyncOptions, mtr clientMetrics, hclock *hlc.Clock) (Measurement, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return Measurement{}, fmt.Errorf("udptime: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return Measurement{}, fmt.Errorf("udptime: dial %q: %w", addr, err)
	}
	defer conn.Close()

	reqID := c.nextReqID()
	var out []byte
	if hclock != nil {
		out = wire.AppendRequestHLC(make([]byte, 0, wire.RequestHLCSize), wire.RequestHLC{
			ReqID: reqID,
			TS:    hclock.Now(hlcWall(local)),
		})
	} else {
		out = wire.AppendRequest(make([]byte, 0, wire.RequestSize), wire.Request{ReqID: reqID})
	}

	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return Measurement{}, fmt.Errorf("udptime: deadline: %w", err)
	}

	// Monotonic first: a descheduling of g between the two reads then
	// lands inside RTT, and widens the offset interval by g below and
	// delta*g above. In the other order it back-dates LocalRecv by g and
	// shifts the interval off the true offset.
	sentMono := time.Now()
	sentLocal := localNow(local)
	if _, err := conn.Write(out); err != nil {
		return Measurement{}, fmt.Errorf("udptime: send to %q: %w", addr, err)
	}

	bufp := dgramPool.Get().(*[maxDatagram]byte)
	buf := bufp[:]
	defer dgramPool.Put(bufp)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return Measurement{}, fmt.Errorf("udptime: read from %q: %w", addr, err)
		}
		var resp wire.Response
		var ts hlc.Timestamp
		if hclock != nil {
			r, err := wire.ParseResponseHLC(buf[:n])
			if err != nil || r.ReqID != reqID {
				mtr.strays.Inc() // stray, short, or malformed datagram
				continue         // keep waiting for ours
			}
			resp, ts = r.Response, r.TS
			hclock.Update(hlcWall(local), ts)
		} else {
			r, err := wire.ParseResponse(buf[:n])
			if err != nil || r.ReqID != reqID {
				mtr.strays.Inc() // stray, short, or malformed datagram
				continue         // keep waiting for ours
			}
			resp = r
		}
		rtt := time.Since(sentMono)
		return Measurement{
			Addr:           addr,
			ServerID:       resp.ServerID,
			C:              resp.Clock,
			E:              resp.MaxError,
			RTT:            rtt,
			LocalRecv:      sentLocal.Add(rtt),
			Delta:          opts.Delta,
			Unsynchronized: resp.Unsynchronized,
			TS:             ts,
			recv:           sentMono.Add(rtt),
		}, nil
	}
}

// QueryMany queries every address concurrently. It returns the successful
// measurements and, when any query failed, a joined error describing the
// failures. Unsynchronized responses are returned but flagged.
func (c *Client) QueryMany(addrs []string) ([]Measurement, error) {
	type result struct {
		m   Measurement
		err error
	}
	results := make([]result, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := c.Query(addr)
			results[i] = result{m: m, err: err}
		}()
	}
	wg.Wait()

	var ms []Measurement
	var errs []error
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		ms = append(ms, r.m)
	}
	return ms, errors.Join(errs...)
}

// Sync errors.
var (
	ErrNoMeasurements = errors.New("udptime: no usable measurements")
	ErrInconsistent   = errors.New("udptime: measurements mutually inconsistent")
)

// SyncIM disciplines dc with the intersection algorithm (rule IM-2): the
// offset intervals of all synchronized measurements, aged to the sync
// instant and intersected with the clock's own current interval when it
// is synchronized, yield the new offset and inherited error. It returns
// the applied offset interval.
func SyncIM(dc *DisciplinedClock, ms []Measurement) (interval.Interval, error) {
	now := time.Now()
	var ivs []interval.Interval
	for _, m := range ms {
		if !m.Unsynchronized {
			ivs = append(ivs, m.offsetAt(now))
		}
	}
	if len(ivs) == 0 {
		return interval.Interval{}, ErrNoMeasurements
	}
	if _, e, synced := dc.Now(); synced {
		ivs = append(ivs, interval.FromEstimate(0, e.Seconds()))
	}
	return adopt(dc, ivs)
}

// SyncSelect disciplines dc with falseticker rejection: ntp.Select over
// the measurements' offset intervals (aged to the sync instant),
// clustering to at most keep survivors, then the intersection of the
// survivors. Use it when some servers may hold invalid drift bounds (the
// Section 5 failure mode).
func SyncSelect(dc *DisciplinedClock, ms []Measurement, keep int) (ntp.Selection, error) {
	now := time.Now()
	var readings []ntp.Reading
	for _, m := range ms {
		if !m.Unsynchronized {
			readings = append(readings, ntp.Reading{
				ID:       m.Addr,
				Interval: m.offsetAt(now),
				RTT:      m.RTT.Seconds(),
			})
		}
	}
	if len(readings) == 0 {
		return ntp.Selection{}, ErrNoMeasurements
	}
	sel, err := ntp.Select(readings, ntp.Options{})
	if err != nil {
		return ntp.Selection{}, err
	}
	survivors := ntp.Cluster(readings, sel.Survivors, keep)
	member := make([]interval.Interval, len(survivors))
	for i, idx := range survivors {
		member[i] = readings[idx].Interval
	}
	common, err := adopt(dc, member)
	if err != nil {
		return ntp.Selection{}, err
	}
	sel.Survivors = survivors
	sel.Interval = common
	return sel, nil
}

// adopt is rule IM-2's reset over offset intervals, of which there is at
// least one: fold them into their intersection and move dc to its
// midpoint, inheriting its half-width. It returns the intersection.
func adopt(dc *DisciplinedClock, ivs []interval.Interval) (interval.Interval, error) {
	a, b := math.Inf(-1), math.Inf(1)
	for _, iv := range ivs {
		a, b = core.Fold(a, b, iv.Lo, iv.Hi)
	}
	if b < a {
		return interval.Interval{}, ErrInconsistent
	}
	shift, eps := core.Midpoint(a, b)
	err := dc.Adjust(time.Duration(shift*float64(time.Second)), time.Duration(eps*float64(time.Second)))
	if err != nil {
		return interval.Interval{}, err
	}
	return interval.Interval{Lo: a, Hi: b}, nil
}

// QueryBurst queries addr up to k times back-to-back and returns the
// measurement with the smallest round trip. A delay spike can only widen
// an offset interval (the requester charges the whole round trip to the
// leading edge), so the fastest exchange of a burst carries the tightest
// honest interval — the measurement filter of the [Mills 81] lineage the
// paper cites for clock measurement. Individual attempts may fail; an
// error is returned only when every attempt does.
func (c *Client) QueryBurst(addr string, k int) (Measurement, error) {
	if k < 1 {
		k = 1
	}
	var (
		best    Measurement
		haveOne bool
		errs    []error
	)
	for i := 0; i < k; i++ {
		m, err := c.Query(addr)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !haveOne || m.RTT < best.RTT {
			best = m
			haveOne = true
		}
	}
	if !haveOne {
		return Measurement{}, fmt.Errorf("udptime: burst to %q failed: %w", addr, errors.Join(errs...))
	}
	return best, nil
}

// QueryManyBurst queries every address concurrently, each with a burst of
// k attempts, keeping the minimum-RTT measurement per server.
func (c *Client) QueryManyBurst(addrs []string, k int) ([]Measurement, error) {
	type result struct {
		m   Measurement
		err error
	}
	results := make([]result, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := c.QueryBurst(addr, k)
			results[i] = result{m: m, err: err}
		}()
	}
	wg.Wait()

	var ms []Measurement
	var errs []error
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		ms = append(ms, r.m)
	}
	return ms, errors.Join(errs...)
}
