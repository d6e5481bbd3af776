package udptime

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"disttime/internal/member"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// This file is the real-network realization of the internal/member
// subsystem: a roster keyed by serving address, fed by version-2
// advertise datagrams, with the drift-aware failure detector running on
// the process's monotonic clock. A roster-backed peer starts from seed
// addresses only, learns the rest of the cluster through anti-entropy
// gossip, and re-resolves its poll targets from the roster every sync
// round — the paper's "adopt the neighbor with smaller maximum error"
// applied to topology, over UDP.

// MembershipConfig tunes a roster-backed peer's gossip and detector.
// The zero value picks the defaults.
type MembershipConfig struct {
	// Gossip is the heartbeat/advertise period. Defaults to one second.
	Gossip time.Duration
	// Misses is how many consecutive heartbeats a member may stay silent
	// before suspicion; defaults to 3.
	Misses int
	// DigestMax caps the roster entries per advertise datagram; defaults
	// to 8 (and is clamped to wire.MaxAdvertiseEntries).
	DigestMax int
	// Fanout is how many members each gossip tick addresses; defaults
	// to 2 (plus the exploration slot).
	Fanout int
	// K is how many quality-ranked live members a sync round polls;
	// defaults to 3 (plus the exploration slot).
	K int
	// DelayBound is the one-way network delay bound the detector charges
	// (the paper's xi). Defaults to 500 ms.
	DelayBound time.Duration
}

// withDefaults fills the zero fields.
func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.Gossip <= 0 {
		c.Gossip = time.Second
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	if c.DigestMax <= 0 {
		c.DigestMax = 8
	}
	if c.DigestMax > wire.MaxAdvertiseEntries {
		c.DigestMax = wire.MaxAdvertiseEntries
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.DelayBound <= 0 {
		c.DelayBound = 500 * time.Millisecond
	}
	return c
}

// membershipMetrics is the resolved metric-handle set; the zero value is
// inert (obs methods are nil-safe).
type membershipMetrics struct {
	msgs      *obs.Counter   // udptime_member_gossip_messages_total
	entries   *obs.Histogram // udptime_member_gossip_entries
	alive     *obs.Gauge     // udptime_member_alive_servers
	known     *obs.Gauge     // udptime_member_known_servers
	evictions *obs.Counter   // udptime_member_evictions_total
}

func newMembershipMetrics(reg *obs.Registry) membershipMetrics {
	if reg == nil {
		return membershipMetrics{}
	}
	return membershipMetrics{
		msgs:      reg.Counter("udptime_member_gossip_messages_total"),
		entries:   reg.Histogram("udptime_member_gossip_entries", []float64{1, 2, 4, 8, 16, 32}),
		alive:     reg.Gauge("udptime_member_alive_servers"),
		known:     reg.Gauge("udptime_member_known_servers"),
		evictions: reg.Counter("udptime_member_evictions_total"),
	}
}

// membership runs one peer's roster: the gossip loop, the failure
// detector, and the advertise dispatch from the peer's server socket.
// All roster state is guarded by mu; sends go out on the server's own
// connection so every datagram's source address is the serving address.
type membership struct {
	cfg     MembershipConfig
	clock   ClockSource
	delta   float64   // claimed drift bound of the local oscillator (fraction)
	start   time.Time // origin of the detector's monotonic local clock
	metrics membershipMetrics

	mu        sync.Mutex
	conn      *net.UDPConn // the server's socket; nil until bind
	self      string
	roster    *member.Roster[string]
	det       *member.Detector[string]
	rng       *rand.Rand
	resolved  map[string]*net.UDPAddr
	seq       uint64 // advertise datagram sequence (debugging aid)
	evictions uint64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newMembership prepares a membership manager; bind activates it once
// the server socket exists.
func newMembership(clock ClockSource, deltaPPM float64, cfg MembershipConfig, reg *obs.Registry) *membership {
	return &membership{
		cfg:      cfg.withDefaults(),
		clock:    clock,
		delta:    deltaPPM / 1e6,
		start:    time.Now(),
		metrics:  newMembershipMetrics(reg),
		resolved: make(map[string]*net.UDPAddr),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
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
// of its previous life, and the seeds join as generation-zero entries of
// unknown (infinite) quality — superseded by their first real
// advertisement, and never detector-tracked until actually heard.
func (m *membership) bind(conn *net.UDPConn, id uint64, seeds []string) error {
	self := conn.LocalAddr().String()
	det, err := member.NewDetector[string](member.DetectorConfig{
		Period:      m.cfg.Gossip.Seconds(),
		Misses:      m.cfg.Misses,
		LocalDelta:  m.delta,
		RemoteDelta: m.delta,
		Xi:          m.cfg.DelayBound.Seconds(),
	})
	if err != nil {
		return fmt.Errorf("udptime: membership detector: %w", err)
	}
	m.mu.Lock()
	m.conn = conn
	m.self = self
	m.det = det
	m.rng = rand.New(rand.NewPCG(id, uint64(time.Now().UnixNano())))
	m.roster = member.New(self, uint64(time.Now().UnixNano()), m.delta)
	c, e := m.reading()
	m.roster.Advertise(c, e)
	for _, seed := range seeds {
		if seed == self {
			continue
		}
		m.roster.Upsert(member.Entry[string]{ID: seed, Status: member.Alive, E: math.Inf(1)})
	}
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

// tick is one gossip round: refresh the owner's advertisement, turn
// silence into verdicts, and push a roster digest to the selected
// members.
func (m *membership) tick() {
	m.mu.Lock()
	now := m.localNow()
	c, e := m.reading()
	m.roster.Advertise(c, e)
	for _, v := range m.det.Check(now) {
		if _, changed := m.roster.Accuse(v.ID, v.Status); changed && v.Status == member.Evicted {
			m.det.Forget(v.ID)
			m.evictions++
			m.metrics.evictions.Inc()
		}
	}
	targets := member.Select(m.roster, member.SelectConfig[string]{
		K:       m.cfg.Fanout,
		Explore: m.rng.IntN,
	})
	payload, sent := m.encodeDigest()
	m.metrics.alive.Set(float64(m.roster.AliveCount()))
	m.metrics.known.Set(float64(m.roster.Len()))
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
	digest := m.roster.Digest(make([]member.Entry[string], 0, m.cfg.DigestMax), m.cfg.DigestMax)
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

// send resolves addr (cached) and writes one datagram from the server's
// socket.
func (m *membership) send(addr string, payload []byte) bool {
	m.mu.Lock()
	udp, ok := m.resolved[addr]
	conn := m.conn
	m.mu.Unlock()
	if conn == nil {
		return false
	}
	if !ok {
		var err error
		udp, err = net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return false
		}
		m.mu.Lock()
		m.resolved[addr] = udp
		m.mu.Unlock()
	}
	_, err := conn.WriteToUDP(payload, udp)
	return err == nil
}

// handleAdvertise merges one incoming digest: the sender's own row
// (first, per the digest convention) is direct freshness evidence; any
// entry strictly fresher than what the roster knew is indirect evidence
// that its member advertised recently. A fresher claim about this very
// peer — someone suspected or evicted us — triggers an immediate rejoin
// with a bumped incarnation.
func (m *membership) handleAdvertise(entries []wire.MemberEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.roster == nil {
		return // datagram raced the bind; gossip repeats
	}
	now := m.localNow()
	for i, we := range entries {
		e := member.Entry[string]{
			ID: we.Addr, Gen: we.Gen, Seq: we.Seq, Status: member.Status(we.Status),
			C: we.C, E: we.E, Delta: we.Delta,
		}
		if i == 0 && e.ID != m.self && e.Status == member.Alive {
			m.det.Observe(e.ID, now)
		}
		ch, changed := m.roster.Upsert(e)
		if !changed {
			continue
		}
		if e.ID == m.self {
			if st := m.roster.Self().Status; st == member.Suspect || st == member.Evicted {
				rc, re := m.reading()
				m.roster.Rejoin(rc, re)
			}
			continue
		}
		switch ch.To {
		case member.Alive:
			m.det.Observe(e.ID, now)
		case member.Left, member.Evicted:
			m.det.Forget(e.ID)
		}
	}
	m.metrics.alive.Set(float64(m.roster.AliveCount()))
	m.metrics.known.Set(float64(m.roster.Len()))
}

// Targets returns the addresses a sync round should poll: the K live
// members with the smallest advertised maximum error plus the seeded
// exploration slot. Wired into SyncerConfig.Targets, so the poll set
// follows the roster as members join, leave, and are evicted.
func (m *membership) Targets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.roster == nil {
		return nil
	}
	return member.Select(m.roster, member.SelectConfig[string]{
		K:       m.cfg.K,
		Explore: m.rng.IntN,
	})
}

// Members returns the roster in increasing address order.
func (m *membership) Members() []member.Entry[string] {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.roster == nil {
		return nil
	}
	return m.roster.Members()
}

// Evictions returns how many members this peer's detector has evicted.
func (m *membership) Evictions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
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
	if m.roster == nil {
		m.mu.Unlock()
		return
	}
	m.roster.Leave()
	targets := member.Select(m.roster, member.SelectConfig[string]{K: m.cfg.Fanout})
	payload, _ := m.encodeDigest()
	m.mu.Unlock()
	if payload == nil {
		return
	}
	for _, addr := range targets {
		m.send(addr, payload)
	}
}
