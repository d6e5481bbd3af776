package udptime

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"time"

	"disttime/internal/member"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// This file is the real-network substrate of the membership protocol.
// The protocol itself — roster, drift-aware failure detector, what a
// gossip tick and a digest merge do, whom to gossip to and to poll — is
// one member.Protocol keyed by serving address, the same type the
// simulator drives. What is here is what only a process on a network
// has: the mutex, the ticker goroutine, the process's monotonic clock as
// the detector's local clock, the version-2 advertise datagram and the
// socket it travels on, and the gauges. A roster-backed peer starts from
// seed addresses only, learns the rest of the cluster through
// anti-entropy gossip, and re-resolves its poll targets from the roster
// every sync round — the paper's "adopt the neighbor with smaller
// maximum error" applied to topology, over UDP.

// MembershipConfig tunes a roster-backed peer's gossip and detector.
// The zero value picks the defaults.
type MembershipConfig struct {
	// Gossip is the heartbeat/advertise period. Defaults to one second.
	Gossip time.Duration
}

// delayBound is the one-way network delay bound the detector charges
// (the paper's ξ). No peer ever chose another value, so it is not
// configuration.
const delayBound = 500 * time.Millisecond

// membershipMetrics is the resolved metric-handle set; the zero value is
// inert (obs methods are nil-safe).
type membershipMetrics struct {
	msgs      *obs.Counter      // udptime_member_gossip_messages_total
	entries   *obs.LogHistogram // udptime_member_gossip_entries
	alive     *obs.Gauge        // udptime_member_alive_servers
	known     *obs.Gauge        // udptime_member_known_servers
	evictions *obs.Counter      // udptime_member_evictions_total
}

func newMembershipMetrics(reg *obs.Registry) membershipMetrics {
	if reg == nil {
		return membershipMetrics{}
	}
	return membershipMetrics{
		msgs:      reg.Counter("udptime_member_gossip_messages_total"),
		entries:   reg.LogHistogram("udptime_member_gossip_entries"),
		alive:     reg.Gauge("udptime_member_alive_servers"),
		known:     reg.Gauge("udptime_member_known_servers"),
		evictions: reg.Counter("udptime_member_evictions_total"),
	}
}

// membership drives one peer's member.Protocol: the gossip loop and the
// advertise dispatch from the peer's server socket. The protocol state
// is guarded by mu; sends go out on the server's own connection so every
// datagram's source address is the serving address, which is the
// sender's roster ID.
type membership struct {
	cfg     MembershipConfig
	clock   ClockSource
	delta   float64   // claimed drift bound of the local oscillator (fraction)
	start   time.Time // origin of the detector's monotonic local clock
	metrics membershipMetrics
	conn    *net.UDPConn // the server's socket; set by bind before the loop starts

	mu    sync.Mutex
	proto *member.Protocol[string] // nil until bind
	rng   *rand.Rand
	seq   uint64 // advertise datagram sequence (debugging aid)

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newMembership prepares a membership manager; bind activates it once
// the server socket exists.
func newMembership(clock ClockSource, deltaPPM float64, cfg MembershipConfig, reg *obs.Registry) *membership {
	if cfg.Gossip <= 0 {
		cfg.Gossip = time.Second
	}
	return &membership{
		cfg:     cfg,
		clock:   clock,
		delta:   deltaPPM / 1e6,
		start:   time.Now(),
		metrics: newMembershipMetrics(reg),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// localNow is the detector's local clock: seconds of the process
// monotonic clock, drifting by at most the oscillator's claimed bound.
func (m *membership) localNow() float64 { return time.Since(m.start).Seconds() }

// reading returns the local clock's <C, E> in seconds; an
// unsynchronized clock advertises infinite error, so quality ranking
// places it last until its first successful round.
func (m *membership) reading() (c, e float64) {
	now, maxErr, synced := m.clock.Now()
	c = float64(now.UnixNano()) / 1e9
	e = maxErr.Seconds()
	if !synced {
		e = math.Inf(1)
	}
	return c, e
}

// bind activates the manager on the server's socket: the roster owner is
// the serving address, the incarnation number is drawn from the wall
// clock so a restarted peer at the same address supersedes every trace
// of its previous life, and the seeds join as placeholders
// (member.Protocol.Seed).
func (m *membership) bind(conn *net.UDPConn, id uint64, seeds []string) error {
	c, e := m.reading()
	proto, err := member.NewProtocol(conn.LocalAddr().String(), uint64(time.Now().UnixNano()), member.DetectorConfig{
		Period:      m.cfg.Gossip.Seconds(),
		LocalDelta:  m.delta,
		RemoteDelta: m.delta,
		Xi:          delayBound.Seconds(),
	}, c, e)
	if err != nil {
		return fmt.Errorf("udptime: membership detector: %w", err)
	}
	for _, seed := range seeds {
		proto.Seed(seed)
	}
	m.conn = conn
	m.mu.Lock()
	m.proto = proto
	m.rng = rand.New(rand.NewPCG(id, uint64(time.Now().UnixNano())))
	m.mu.Unlock()
	go m.run()
	return nil
}

func (m *membership) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Gossip)
	defer ticker.Stop()
	m.tick()
	for {
		select {
		case <-ticker.C:
			m.tick()
		case <-m.stop:
			return
		}
	}
}

// tick is one gossip round: the protocol's tick on the monotonic clock
// and the disciplined clock's reading, then a digest to the selected
// members.
func (m *membership) tick() {
	m.mu.Lock()
	c, e := m.reading()
	evicted := m.proto.Evictions()
	m.proto.Tick(m.localNow(), c, e)
	m.metrics.evictions.Add(m.proto.Evictions() - evicted)
	targets := m.proto.GossipTargets(m.rng.IntN, nil)
	payload, sent := m.encodeDigest()
	m.metrics.alive.Set(float64(m.proto.Roster().AliveCount()))
	m.metrics.known.Set(float64(m.proto.Roster().Len()))
	// The handles are resolved once at construction; copy them out so the
	// sends below need no lock.
	metrics := m.metrics
	m.mu.Unlock()
	if payload == nil {
		return
	}
	for _, addr := range targets {
		if m.send(addr, payload) {
			metrics.msgs.Inc()
			metrics.entries.Observe(float64(sent))
		}
	}
}

// encodeDigest renders the roster digest as one advertise datagram.
// Callers hold mu.
func (m *membership) encodeDigest() (payload []byte, entries int) {
	//lint:ignore guardedby both callers, tick and close, hold m.mu across this call (documented above)
	digest := m.proto.Digest(nil)
	out := make([]wire.MemberEntry, 0, len(digest))
	for _, e := range digest {
		out = append(out, wire.MemberEntry{
			Addr: e.ID, Gen: e.Gen, Seq: e.Seq, Status: uint8(e.Status),
			C: e.C, E: e.E, Delta: e.Delta,
		})
	}
	m.seq++
	payload, err := wire.AppendAdvertise(nil, m.seq, out)
	if err != nil {
		// Roster entries are validated on the way in; encoding them back
		// cannot fail.
		return nil, 0
	}
	return payload, len(out)
}

// send writes one datagram from the server's socket to addr, resolved
// as the client resolves a server's address: a roster ID is an address
// literal and is parsed in place, a host-name seed is looked up on every
// send, so it follows its record.
func (m *membership) send(addr string, payload []byte) bool {
	to, err := resolveAddr(addr)
	if err != nil {
		return false
	}
	_, err = m.conn.WriteToUDPAddrPort(payload, to)
	return err == nil
}

// handleAdvertise merges one incoming digest, credited to the address
// the datagram came from — unmapped, so that it is spelled as the
// sender's own roster ID is — and not to whatever its first row claims.
func (m *membership) handleAdvertise(from *net.UDPAddr, entries []wire.MemberEntry) {
	rows := make([]member.Entry[string], len(entries))
	for i, we := range entries {
		rows[i] = member.Entry[string]{
			ID: we.Addr, Gen: we.Gen, Seq: we.Seq, Status: member.Status(we.Status),
			C: we.C, E: we.E, Delta: we.Delta,
		}
	}
	ap := from.AddrPort()
	src := netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.proto == nil {
		return // datagram raced the bind; gossip repeats
	}
	m.proto.Merge(src, rows, m.localNow(), m.reading)
	m.metrics.alive.Set(float64(m.proto.Roster().AliveCount()))
	m.metrics.known.Set(float64(m.proto.Roster().Len()))
}

// Targets returns the addresses a sync round should poll. Wired into
// SyncerConfig.Targets, so the poll set follows the roster as members
// join, leave, and are evicted.
func (m *membership) Targets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.proto.PollTargets(m.rng.IntN, nil)
}

// Members returns the roster in increasing address order.
func (m *membership) Members() []member.Entry[string] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.proto.Roster().Members()
}

// halt stops the gossip loop without any announcement — the controlled
// equivalent of a crash, used by tests that exercise the failure
// detector. Idempotent.
func (m *membership) halt() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// close stops the gossip loop and announces a voluntary departure with
// one farewell digest, so the survivors record Left instead of waiting
// out an eviction.
func (m *membership) close() {
	m.halt()
	m.mu.Lock()
	m.proto.Leave()
	targets := m.proto.GossipTargets(nil, nil)
	payload, _ := m.encodeDigest()
	m.mu.Unlock()
	if payload == nil {
		return
	}
	for _, addr := range targets {
		m.send(addr, payload)
	}
}
