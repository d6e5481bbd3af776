package udptime

import (
	"math"
	"testing"
	"time"
)

func TestNewPeerValidation(t *testing.T) {
	if _, err := NewPeer(PeerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Error("peer with no peers accepted")
	}
	if _, err := NewPeer(PeerConfig{
		Addr: "127.0.0.1:0", Peers: []string{"x"},
	}); err == nil {
		t.Error("peer with no clock accepted")
	}
	if _, err := NewPeer(PeerConfig{
		Addr: "not an address", Peers: []string{"x"}, Clock: mustClock(t),
	}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestPeerAnswersUnsynchronizedBeforeFirstSync(t *testing.T) {
	// A peer whose only upstream is silent never synchronizes; its
	// answers must carry the Unsynchronized flag so clients ignore them.
	silent, err := NewServer("127.0.0.1:0", 9, shiftedClock{synced: false})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	peer, err := NewPeer(PeerConfig{
		Addr:     "127.0.0.1:0",
		ID:       1,
		Clock:    mustClock(t),
		Peers:    []string{silent.Addr().String()},
		Interval: time.Minute,
		Timeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	client := NewClient(2*time.Second, nil)
	m, err := client.Query(peer.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unsynchronized {
		t.Error("unsynced peer answered as synchronized")
	}
}

func TestPeersConvergeOnReference(t *testing.T) {
	// A reference server plus two peers that track it: after a round,
	// both peers answer with intervals containing the reference time.
	ref := startServer(t, 100, shiftedClock{err: 5 * time.Millisecond, synced: true})

	mkPeer := func(id uint64) *Peer {
		reports := make(chan SyncReport, 4)
		peer, err := NewPeer(PeerConfig{
			Addr:     "127.0.0.1:0",
			ID:       id,
			Clock:    mustClock(t),
			Peers:    []string{ref.Addr().String()},
			Interval: 50 * time.Millisecond,
			Timeout:  time.Second,
			OnSync:   func(r SyncReport) { reports <- r },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		select {
		case r := <-reports:
			if r.Err != nil {
				t.Fatalf("peer %d first round: %v", id, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d never synced", id)
		}
		return peer
	}
	p1 := mkPeer(1)
	p2 := mkPeer(2)

	client := NewClient(2*time.Second, nil)
	for _, p := range []*Peer{p1, p2} {
		m, err := client.Query(p.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if m.Unsynchronized {
			t.Errorf("peer %d still unsynchronized", m.ServerID)
		}
		// The peer's clock tracks the (unshifted) reference.
		if iv := m.OffsetInterval(); !iv.Contains(0) {
			t.Errorf("peer %d offset interval %v excludes 0", m.ServerID, iv)
		}
	}

	// The two peers' clocks agree with each other.
	n1, _, _ := p1.Clock().Now()
	n2, _, _ := p2.Clock().Now()
	if d := n1.Sub(n2); math.Abs(d.Seconds()) > 0.2 {
		t.Errorf("peers disagree by %v", d)
	}
	if p1.Rounds() == 0 {
		t.Error("peer accounting empty")
	}
}

func TestPeerMeshSyncsFromEachOther(t *testing.T) {
	// One reference plus a peer; a second peer knows only the first peer,
	// not the reference — transitive synchronization through the mesh.
	ref := startServer(t, 100, shiftedClock{err: 5 * time.Millisecond, synced: true})

	first := make(chan SyncReport, 4)
	p1, err := NewPeer(PeerConfig{
		Addr: "127.0.0.1:0", ID: 1, Clock: mustClock(t),
		Peers:    []string{ref.Addr().String()},
		Interval: 50 * time.Millisecond, Timeout: time.Second,
		OnSync: func(r SyncReport) { first <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	select {
	case r := <-first:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("p1 never synced")
	}

	second := make(chan SyncReport, 16)
	p2, err := NewPeer(PeerConfig{
		Addr: "127.0.0.1:0", ID: 2, Clock: mustClock(t),
		Peers:    []string{p1.Addr().String()},
		Interval: 50 * time.Millisecond, Timeout: time.Second,
		OnSync: func(r SyncReport) { second <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case r := <-second:
			if r.Err == nil {
				// Synced through p1. The chained error bound must cover
				// the actual offset from the reference timeline.
				now, e, synced := p2.Clock().Now()
				if !synced {
					t.Fatal("p2 reports unsynced after a good round")
				}
				off := now.Sub(time.Now())
				if math.Abs(off.Seconds()) > e.Seconds()+0.1 {
					t.Errorf("p2 off by %v with bound %v", off, e)
				}
				return
			}
			// p1 may have been mid-first-round; retry until deadline.
		case <-deadline:
			t.Fatal("p2 never completed a successful round")
		}
	}
}

func TestNewPeerUsesSuppliedClock(t *testing.T) {
	ref := startServer(t, 100, shiftedClock{err: 5 * time.Millisecond, synced: true})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan SyncReport, 4)
	peer, err := NewPeer(PeerConfig{
		Addr: "127.0.0.1:0", ID: 1, Clock: dc,
		Peers:    []string{ref.Addr().String()},
		Interval: time.Minute, Timeout: time.Second,
		OnSync: func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if peer.Clock() != dc {
		t.Fatal("peer did not adopt the supplied clock")
	}
	select {
	case r := <-reports:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no round")
	}
	if _, _, synced := dc.Now(); !synced {
		t.Error("supplied clock not disciplined")
	}
}
