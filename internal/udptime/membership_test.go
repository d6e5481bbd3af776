package udptime

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"disttime/internal/member"
	"disttime/internal/obs"
	"disttime/internal/wire"
)

// fastMembership is the test-speed gossip configuration: a 50 ms period
// puts the eviction deadline near a second (the detector's delay bound
// is the fixed 500 ms), so the eviction and re-admission waits stay
// bounded.
func fastMembership() MembershipConfig {
	return MembershipConfig{Gossip: 50 * time.Millisecond}
}

// reserveAddrs binds n loopback UDP sockets to learn n free ports, then
// releases them so the peers under test can claim the addresses. The
// tiny reuse race is acceptable in a test environment.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		addrs[i] = conn.LocalAddr().String()
	}
	for _, conn := range conns {
		conn.Close()
	}
	return addrs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// status returns the roster status p records for addr (zero when
// unknown).
func status(p *Peer, addr string) member.Status {
	for _, e := range p.Members() {
		if e.ID == addr {
			return e.Status
		}
	}
	return 0
}

// aliveView counts the Alive members in p's roster.
func aliveView(p *Peer) int {
	n := 0
	for _, e := range p.Members() {
		if e.Status == member.Alive {
			n++
		}
	}
	return n
}

// TestClusterConvergeEvictReadmit is the acceptance integration test
// over real UDP sockets: five peers started with only seed addresses
// converge to the full roster through gossip, evict a killed peer
// within the detector bound, and re-admit it after a restart as a
// fresh incarnation — once with every peer serving per-packet, once
// with every peer's heartbeats and version-3 syncs spread over batched
// shards.
// Evictions returns how many members p's failure detector has evicted
// (zero without dynamic membership).
func (p *Peer) Evictions() uint64 {
	m := p.membership
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.proto.Evictions()
}

// EvictAfter returns p's failure-detector eviction deadline, the
// local-clock silence after which a member is evicted, from the
// detector configuration bind gives it; zero without dynamic
// membership. Tests size "the member should be gone by now" waits with
// it.
func (p *Peer) EvictAfter() time.Duration {
	m := p.membership
	if m == nil {
		return 0
	}
	cfg := member.DetectorConfig{
		Period:      m.cfg.Gossip.Seconds(),
		LocalDelta:  m.delta,
		RemoteDelta: m.delta,
		Xi:          delayBound.Seconds(),
	}
	return time.Duration(cfg.EvictAfter() * float64(time.Second))
}

func TestClusterConvergeEvictReadmit(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { testClusterConvergeEvictReadmit(t, b.new) })
	}
}

func testClusterConvergeEvictReadmit(t *testing.T, listen newServerFunc) {
	const n = 5
	addrs := reserveAddrs(t, n)
	reg := obs.NewRegistry()
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		// A star of seed knowledge: everyone seeds to peer 0, peer 0 to
		// peer 1. Gossip must spread the rest.
		seed := addrs[0]
		if i == 0 {
			seed = addrs[1]
		}
		cfg := PeerConfig{
			Addr:       addrs[i],
			ID:         uint64(i + 1),
			Clock:      mustClock(t),
			Seeds:      []string{seed},
			Membership: fastMembership(),
			Interval:   100 * time.Millisecond,
			Timeout:    200 * time.Millisecond,
		}
		if i == 0 {
			cfg.Metrics = reg
		}
		p, err := newPeer(cfg, listen)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		peers[i] = p
		defer func() { p.Close() }()
	}

	// Convergence: every peer's roster reaches n Alive members (itself
	// included) starting from a single seed address each.
	waitFor(t, 10*time.Second, "full roster convergence", func() bool {
		for _, p := range peers {
			if aliveView(p) < n {
				return false
			}
		}
		return true
	})

	// The roster-driven syncer should complete rounds against learned
	// members, not just the seed.
	waitFor(t, 5*time.Second, "roster-driven sync rounds", func() bool {
		for _, p := range peers {
			if p.Rounds() == 0 {
				return false
			}
		}
		return true
	})

	// Membership metrics follow the roster.
	snap := reg.Snapshot()
	foundAlive := false
	for _, g := range snap.Gauges {
		if g.Name == "udptime_member_alive_servers" {
			foundAlive = true
			if g.Value < n {
				t.Errorf("udptime_member_alive_servers = %v, want >= %d", g.Value, n)
			}
		}
	}
	if !foundAlive {
		t.Error("udptime_member_alive_servers gauge not registered")
	}

	// Kill peer 2 abruptly: stop its loops and socket without the
	// voluntary-departure farewell, so the survivors must detect the
	// silence. Eviction must land within the detector bound (plus
	// scheduling slack).
	victim := peers[2]
	bound := victim.EvictAfter()
	if bound <= 0 {
		t.Fatal("EvictAfter returned no bound for a roster-backed peer")
	}
	victim.syncer.Stop()
	victim.membership.halt()
	victim.server.Close()
	peers[2] = nil

	waitFor(t, 3*bound+3*time.Second, "eviction of the killed peer", func() bool {
		for i, p := range peers {
			if i == 2 {
				continue
			}
			if status(p, addrs[2]) != member.Evicted {
				return false
			}
		}
		return true
	})

	// No survivor may have evicted a live peer. A survivor's local
	// detector evicts at most the killed peer; survivors that learned
	// the verdict through gossip before their own deadline fired count
	// zero — so each counter is 0 or 1 and at least one fired.
	var totalEvictions uint64
	for i, p := range peers {
		if i == 2 {
			continue
		}
		ev := p.Evictions()
		totalEvictions += ev
		if ev > 1 {
			t.Errorf("peer %d evicted %d members, want at most 1 (the killed peer)", i, ev)
		}
		for j, addr := range addrs {
			if j == 2 {
				continue
			}
			if st := status(p, addr); st != member.Alive {
				t.Errorf("peer %d sees live peer %d as %v", i, j, st)
			}
		}
	}
	if totalEvictions == 0 {
		t.Error("no survivor's local detector evicted the killed peer")
	}

	// Restart the victim at the same address: its wall-clock incarnation
	// number supersedes the eviction, and every survivor re-admits it.
	reborn, err := newPeer(PeerConfig{
		Addr:       addrs[2],
		ID:         3,
		Clock:      mustClock(t),
		Seeds:      []string{addrs[0]},
		Membership: fastMembership(),
		Interval:   100 * time.Millisecond,
		Timeout:    200 * time.Millisecond,
	}, listen)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer reborn.Close()
	peers[2] = reborn

	waitFor(t, 10*time.Second, "re-admission of the restarted peer", func() bool {
		for _, p := range peers {
			if aliveView(p) < n {
				return false
			}
		}
		return true
	})
}

// TestClusterVoluntaryLeave checks the graceful path: Close announces a
// departure, so the survivors record Left — no detector deadline, no
// eviction.
func TestClusterVoluntaryLeave(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	peers := make([]*Peer, 3)
	for i := range peers {
		seed := addrs[0]
		if i == 0 {
			seed = addrs[1]
		}
		p, err := NewPeer(PeerConfig{
			Addr:       addrs[i],
			ID:         uint64(i + 1),
			Clock:      mustClock(t),
			Seeds:      []string{seed},
			Membership: fastMembership(),
			Interval:   100 * time.Millisecond,
			Timeout:    200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		peers[i] = p
		defer func() { p.Close() }()
	}
	waitFor(t, 10*time.Second, "roster convergence", func() bool {
		for _, p := range peers {
			if aliveView(p) < 3 {
				return false
			}
		}
		return true
	})
	peers[2].Close()
	waitFor(t, 5*time.Second, "departure to be recorded as Left", func() bool {
		return status(peers[0], addrs[2]) == member.Left &&
			status(peers[1], addrs[2]) == member.Left
	})
	if ev := peers[0].Evictions() + peers[1].Evictions(); ev != 0 {
		t.Errorf("voluntary departure caused %d evictions", ev)
	}
}

// TestAdvertiseCreditsSourceAddress is the evidence rule on a real
// socket: a digest is direct evidence of the address it came from, not
// of whoever its first row names. One sender repeats the same datagram —
// another member's row first, then its own, neither row ever fresher
// than the first time — so the rows are evidence of nobody after the
// first delivery and only the source address tells the two members
// apart: the sender must stay alive and the member in the first row,
// which was never heard from, must be evicted. (When the first row was
// credited it was the other way round.)
func TestAdvertiseCreditsSourceAddress(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	quiet := addrs[1] // named in every first row, never bound
	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	p, err := NewPeer(PeerConfig{
		Addr:       addrs[0],
		Clock:      mustClock(t),
		Seeds:      []string{sender.LocalAddr().String()},
		Membership: fastMembership(),
		Interval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	datagram, err := wire.AppendAdvertise(nil, 1, []wire.MemberEntry{
		{Addr: quiet, Gen: 1, Seq: 1, Status: uint8(member.Alive), E: 0.01},
		{Addr: sender.LocalAddr().String(), Gen: 1, Seq: 1, Status: uint8(member.Alive), E: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*p.EvictAfter()+3*time.Second, "eviction of the member that was only ever named", func() bool {
		if _, err := sender.WriteToUDP(datagram, p.Addr()); err != nil {
			t.Fatal(err)
		}
		return status(p, quiet) == member.Evicted
	})
	if st := status(p, sender.LocalAddr().String()); st != member.Alive {
		t.Errorf("the sender of every datagram is recorded as %v", st)
	}
	if ev := p.Evictions(); ev != 1 {
		t.Errorf("%d evictions, want 1", ev)
	}
}

// TestPeerConfigValidation is the regression matrix for the relaxed
// validation: empty Peers is now legal when Seeds are given, while the
// fully-empty configuration still fails with the original error.
func TestPeerConfigValidation(t *testing.T) {
	// The original "Required" path: neither Peers nor Seeds.
	_, err := NewPeer(PeerConfig{Addr: "127.0.0.1:0", Clock: mustClock(t)})
	if err == nil {
		t.Fatal("NewPeer accepted a config with neither Peers nor Seeds")
	}
	if got, want := err.Error(), "udptime: peer needs at least one peer address"; got != want {
		t.Fatalf("error = %q, want the original %q", got, want)
	}

	// Seeds without Peers: legal; the roster supplies poll targets. The
	// seed does not have to be reachable at construction time.
	p, err := NewPeer(PeerConfig{
		Addr:       "127.0.0.1:0",
		Clock:      mustClock(t),
		Seeds:      []string{"127.0.0.1:9"},
		Membership: fastMembership(),
		Interval:   time.Hour,
	})
	if err != nil {
		t.Fatalf("NewPeer rejected a seeds-only config: %v", err)
	}
	if p.Members() == nil {
		t.Error("roster-backed peer reports no members")
	}
	p.Close()

	// Peers without Seeds: the pre-membership configuration still works
	// and stays membership-free.
	p, err = NewPeer(PeerConfig{
		Addr:     "127.0.0.1:0",
		Clock:    mustClock(t),
		Peers:    []string{"127.0.0.1:9"},
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewPeer rejected a static config: %v", err)
	}
	if p.Members() != nil || p.EvictAfter() != 0 {
		t.Error("static peer unexpectedly grew a roster")
	}
	p.Close()
}

// TestSyncerDynamicTargets checks the Targets hook: a syncer with no
// static servers polls whatever the hook returns each round.
func TestSyncerDynamicTargets(t *testing.T) {
	src, err := NewSystemClock(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", 7, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := NewSyncer(mustClock(t), SyncerConfig{}); err == nil {
		t.Fatal("NewSyncer accepted neither Servers nor Targets")
	}

	dc := mustClock(t)
	var last atomic.Pointer[SyncReport]
	s, err := NewSyncer(dc, SyncerConfig{
		OnSync:   func(r SyncReport) { last.Store(&r) },
		Targets:  func() []string { return []string{srv.Addr().String()} },
		Interval: 50 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	waitFor(t, 5*time.Second, "a successful dynamic-target round", func() bool {
		r := last.Load()
		return r != nil && r.Err == nil && r.Measurements == 1
	})
	if _, _, synced := dc.Now(); !synced {
		t.Error("clock not disciplined through dynamic targets")
	}
}

func mustClock(t *testing.T) *DisciplinedClock {
	t.Helper()
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}
