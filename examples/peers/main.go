// Peers: a dynamic time-service cluster over real UDP. One anchor peer
// holds a pre-disciplined clock; three more peers join knowing a single
// seed address each — two of them are never told where the anchor is.
// Membership gossip spreads the roster, the drift-aware failure detector
// stands guard, and every sync round polls the live members with the
// smallest advertised maximum error, so accuracy flows outward from the
// anchor exactly as the paper's MM rule prescribes — applied to
// topology instead of replies.
package main

import (
	"fmt"
	"log"
	"math"
	"net"
	"time"

	"disttime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// reserveAddrs binds n loopback UDP sockets to learn n free ports, then
// releases them so the peers can claim the addresses.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := range addrs {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns[i] = conn
		addrs[i] = conn.LocalAddr().String()
	}
	for _, conn := range conns {
		conn.Close()
	}
	return addrs, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", d, what)
}

func run() error {
	// Four addresses up front: the anchor and three joiners. Nothing
	// else is configured statically — each peer gets one seed address.
	addrs, err := reserveAddrs(4)
	if err != nil {
		return err
	}
	membership := disttime.MembershipConfig{Gossip: 150 * time.Millisecond}

	// The anchor: a peer whose disciplined clock is pre-set from the OS
	// clock with a 5 ms bound. It advertises that small error, so
	// quality ranking sends everyone's polls its way.
	anchorClock, err := disttime.NewDisciplinedClock(100)
	if err != nil {
		return err
	}
	if err := anchorClock.Set(time.Now(), 5*time.Millisecond); err != nil {
		return err
	}
	anchor, err := disttime.NewPeer(disttime.PeerConfig{
		Addr:       addrs[0],
		ID:         100,
		Clock:      anchorClock,
		Seeds:      []string{addrs[1]},
		Membership: membership,
		Interval:   200 * time.Millisecond,
		Timeout:    time.Second,
	})
	if err != nil {
		return err
	}
	defer anchor.Close()
	fmt.Printf("anchor peer on %v (clock pre-set to +/- 5ms)\n", anchor.Addr())

	// Three joiners, each with an unset 100 ppm clock and its own metrics
	// registry. Peer 1 seeds to the anchor; peers 2 and 3 seed to peer 1
	// and must *learn* the anchor's address through gossip before they
	// can synchronize at all — the dynamic join.
	var peers []*disttime.Peer
	var regs []*disttime.MetricsRegistry
	for i := 1; i <= 3; i++ {
		seed := addrs[0]
		if i > 1 {
			seed = addrs[1]
		}
		clock, err := disttime.NewDisciplinedClock(100)
		if err != nil {
			return err
		}
		reg := disttime.NewMetricsRegistry()
		peer, err := disttime.NewPeer(disttime.PeerConfig{
			Addr:       addrs[i],
			ID:         uint64(i),
			Clock:      clock,
			Seeds:      []string{seed},
			Membership: membership,
			Interval:   200 * time.Millisecond,
			Timeout:    time.Second,
			Metrics:    reg,
		})
		if err != nil {
			return err
		}
		defer peer.Close()
		peers = append(peers, peer)
		regs = append(regs, reg)
		fmt.Printf("peer %d on %v (seed: %s)\n", i, peer.Addr(), seed)
	}

	// Gossip converges: every peer's roster reaches all four members.
	all := append([]*disttime.Peer{anchor}, peers...)
	err = waitFor(20*time.Second, "roster convergence", func() bool {
		for _, p := range all {
			alive := 0
			for _, e := range p.Members() {
				if e.Status == disttime.MemberAlive {
					alive++
				}
			}
			if alive < len(all) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nrosters converged: every peer sees %d alive members\n", len(all))

	// Quality-ranked polling then disciplines every joiner from the
	// anchor's timeline.
	err = waitFor(20*time.Second, "all peers synchronized", func() bool {
		for _, p := range peers {
			if _, _, synced := p.Clock().Now(); !synced {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}

	// The membership view of the last joiner: it was seeded with one
	// address and now knows — and ranks — the whole cluster.
	fmt.Println("\npeer 3's learned roster (seeded with one address):")
	for _, e := range peers[2].Members() {
		self := ""
		if e.ID == peers[2].Addr().String() {
			self = "  (self)"
		}
		adv := "inf (last heard unsynchronized)"
		if !math.IsInf(e.E, 1) {
			adv = time.Duration(e.E * float64(time.Second)).Round(time.Microsecond).String()
		}
		fmt.Printf("  %-21s %-7v advertised E=%-12s%s\n", e.ID, e.Status, adv, self)
	}

	// A client queries the whole service and intersects the answers.
	client := disttime.NewUDPClient(time.Second, nil)
	defer client.Close()
	ms, err := client.QueryMany(addrs)
	if err != nil {
		return err
	}
	fmt.Println("\nservice answers:")
	var readings []disttime.TimeReading
	for _, m := range ms {
		fmt.Printf("  server %3d: C=%s E=%-12v RTT=%v\n",
			m.ServerID, m.C.Format("15:04:05.000000"), m.E, m.RTT.Round(time.Microsecond))
		readings = append(readings, disttime.TimeReading{C: m.C, E: m.E + m.RTT})
	}
	c, e, ok := disttime.IntersectReadings(readings)
	if !ok {
		return fmt.Errorf("service inconsistent")
	}
	fmt.Printf("\nintersected: %s +/- %v (from %d servers)\n",
		c.Format("15:04:05.000000"), e, len(readings))

	// Peers carry chained error bounds: anchor error + transit + their
	// own drift allowance. The bound covers the actual offset. Each
	// joiner's registry holds its syncer's and its membership's metrics.
	fmt.Println("\npeer clock quality:")
	for i, p := range peers {
		now, maxErr, _ := p.Clock().Now()
		off := now.Sub(time.Now())
		fmt.Printf("  peer %d: offset %-12v bound %-12v rounds %d, served %d requests\n",
			i+1, off.Round(time.Microsecond), maxErr, p.Rounds(), p.Requests())
		fmt.Printf("          udptime_sync_rounds_total %d, udptime_member_alive_servers %g\n",
			regs[i].Counter("udptime_sync_rounds_total").Value(), regs[i].Gauge("udptime_member_alive_servers").Value())
	}
	return nil
}
