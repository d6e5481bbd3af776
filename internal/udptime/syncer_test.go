package udptime

import (
	"errors"
	"math"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestSyncerValidation(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSyncer(nil, SyncerConfig{Servers: []string{"x"}}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewSyncer(dc, SyncerConfig{}); err == nil {
		t.Error("no servers accepted")
	}
}

func TestSyncerDisciplinesClock(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		srv := startServer(t, uint64(i), shiftedClock{
			offset: 2 * time.Second, err: 10 * time.Millisecond, synced: true,
		})
		addrs = append(addrs, srv.Addr().String())
	}
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan SyncReport, 16)
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:  addrs,
		Interval: 50 * time.Millisecond,
		Timeout:  time.Second,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer syncer.Stop()

	// Wait for three reports: OnSync runs before its round is counted, so
	// the third report is what proves two rounds are.
	for i := 0; i < 3; i++ {
		select {
		case r := <-reports:
			if r.Err != nil {
				t.Fatalf("round %d failed: %v", i, r.Err)
			}
			if r.Measurements != 3 || r.Survivors != 3 {
				t.Errorf("round %d: %+v", i, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("syncer produced no report")
		}
	}

	now, e, synced := dc.Now()
	if !synced {
		t.Fatal("clock not synchronized")
	}
	offset := now.Sub(time.Now())
	if math.Abs((offset - 2*time.Second).Seconds()) > 0.2 {
		t.Errorf("offset = %v, want ~2s", offset)
	}
	if e > time.Second {
		t.Errorf("error bound = %v", e)
	}
	if syncer.Rounds() < 2 {
		t.Errorf("Rounds = %d", syncer.Rounds())
	}
}

func TestSyncerStopHalts(t *testing.T) {
	srv := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:  []string{srv.Addr().String()},
		Interval: 20 * time.Millisecond,
		Timeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let a round or two complete, then stop.
	deadline := time.Now().Add(2 * time.Second)
	for syncer.Rounds() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	syncer.Stop()
	after := syncer.Rounds()
	time.Sleep(100 * time.Millisecond)
	if got := syncer.Rounds(); got != after {
		t.Errorf("rounds continued after Stop: %d -> %d", after, got)
	}
	if _, err := syncer.client.Query(srv.Addr().String()); !errors.Is(err, net.ErrClosed) {
		t.Errorf("the syncer's client after Stop: %v, want net.ErrClosed", err)
	}
}

func TestSyncerSelectionRejectsFalseticker(t *testing.T) {
	good1 := startServer(t, 1, shiftedClock{err: 10 * time.Millisecond, synced: true})
	good2 := startServer(t, 2, shiftedClock{err: 10 * time.Millisecond, synced: true})
	liar := startServer(t, 3, shiftedClock{offset: time.Hour, err: time.Millisecond, synced: true})

	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan SyncReport, 16)
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:   []string{good1.Addr().String(), good2.Addr().String(), liar.Addr().String()},
		Interval:  time.Minute, // first immediate round is enough
		Timeout:   time.Second,
		Selection: true,
		OnSync:    func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer syncer.Stop()

	select {
	case r := <-reports:
		if r.Err != nil {
			t.Fatalf("round failed: %v", r.Err)
		}
		if r.Falsetickers != 1 {
			t.Errorf("falsetickers = %d, want 1", r.Falsetickers)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no report")
	}
	now, _, _ := dc.Now()
	if d := now.Sub(time.Now()); math.Abs(d.Seconds()) > 0.5 {
		t.Errorf("clock steered by falseticker: %v", d)
	}
}

func TestSyncerReportsFailureWithoutTouchingClock(t *testing.T) {
	// Two irreconcilable servers: plain intersection must fail and leave
	// the clock unsynchronized.
	a := startServer(t, 1, shiftedClock{err: time.Millisecond, synced: true})
	b := startServer(t, 2, shiftedClock{offset: time.Hour, err: time.Millisecond, synced: true})
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan SyncReport, 16)
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:  []string{a.Addr().String(), b.Addr().String()},
		Interval: time.Minute,
		Timeout:  time.Second,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer syncer.Stop()

	select {
	case r := <-reports:
		if r.Err == nil {
			t.Fatal("inconsistent servers did not fail the round")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no report")
	}
	if _, _, synced := dc.Now(); synced {
		t.Error("clock synchronized from an inconsistent round")
	}
}

// TestSyncerSurvivorsCountsSyncedOnly: an unsynchronized server answers
// and counts in Measurements, but the round does not use it, under the
// plain intersection or under Selection; and a round asks each server
// once.
func TestSyncerSurvivorsCountsSyncedOnly(t *testing.T) {
	for _, selection := range []bool{false, true} {
		srvs := []*Server{
			startServer(t, 1, shiftedClock{err: 10 * time.Millisecond, synced: true}),
			startServer(t, 2, shiftedClock{err: 10 * time.Millisecond, synced: true}),
			startServer(t, 3, shiftedClock{err: 10 * time.Millisecond}),
		}
		var addrs []string
		for _, srv := range srvs {
			addrs = append(addrs, srv.Addr().String())
		}
		dc, err := NewDisciplinedClock(100)
		if err != nil {
			t.Fatal(err)
		}
		reports := make(chan SyncReport, 4)
		syncer, err := NewSyncer(dc, SyncerConfig{
			Servers:   addrs,
			Interval:  time.Minute, // first immediate round is enough
			Timeout:   time.Second,
			Selection: selection,
			OnSync:    func(r SyncReport) { reports <- r },
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-reports:
			if r.Err != nil {
				t.Fatalf("selection=%v: round failed: %v", selection, r.Err)
			}
			if r.Measurements != 3 || r.Survivors != 2 || r.Falsetickers != 0 {
				t.Errorf("selection=%v: Measurements %d, Survivors %d, Falsetickers %d; want 3, 2, 0",
					selection, r.Measurements, r.Survivors, r.Falsetickers)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("selection=%v: no report", selection)
		}
		syncer.Stop()
		for _, srv := range srvs {
			if got := srv.Requests(); got != 1 {
				t.Errorf("selection=%v: server %d answered %d requests, want 1", selection, srv.id, got)
			}
		}
	}
}

// TestSyncerRecoversFromThirdServer is E9's shape on real sockets: a
// clock set an hour off with a 1 ms bound is inconsistent with three
// honest servers, so rule IM-2 finds an empty intersection. Section 3
// recovery resets it from one of them in the first round, and from then
// on [C−E, C+E] contains host time.
func TestSyncerRecoversFromThirdServer(t *testing.T) {
	var addrs []string
	for id := uint64(1); id <= 3; id++ {
		srv := startServer(t, id, shiftedClock{err: 10 * time.Millisecond, synced: true})
		addrs = append(addrs, srv.Addr().String())
	}
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Set(time.Now().Add(time.Hour), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	reports := make(chan SyncReport, 16)
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:  addrs,
		Interval: time.Minute, // the first, immediate round is the one under test
		Timeout:  time.Second,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer syncer.Stop()

	select {
	case r := <-reports:
		if r.Err != nil {
			t.Fatalf("round failed: %v", r.Err)
		}
		if !r.Recovered || r.Survivors != 1 {
			t.Errorf("Recovered %v, Survivors %d; want true, 1", r.Recovered, r.Survivors)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no report")
	}
	before := time.Now()
	now, e, synced := dc.Now()
	after := time.Now()
	if !synced {
		t.Fatal("clock unsynchronized after recovery")
	}
	if now.Add(-e).After(after) || now.Add(e).Before(before) {
		t.Errorf("[C-E, C+E] = [%v, %v] misses host time [%v, %v]", now.Add(-e), now.Add(e), before, after)
	}
}

// TestSyncerIgnoresHostileServerIDs: a server chooses the ID it sends,
// and the node indexes its per-neighbor state by the reply's key. Keyed
// by the wire ID, math.MaxUint64 would index -1 (a panic) and 1<<40 would
// grow a slice of 2^40 entries. Keyed by poll slot, three rounds leave
// the heap where it was. The MaxUint64 server is polled first, so a
// regression panics before it can allocate.
func TestSyncerIgnoresHostileServerIDs(t *testing.T) {
	var addrs []string
	for _, id := range []uint64{math.MaxUint64, 1 << 40} {
		srv := startServer(t, id, shiftedClock{err: 10 * time.Millisecond, synced: true})
		addrs = append(addrs, srv.Addr().String())
	}
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reports := make(chan SyncReport, 16)
	syncer, err := NewSyncer(dc, SyncerConfig{
		Servers:  addrs,
		Interval: 20 * time.Millisecond,
		Timeout:  time.Second,
		OnSync:   func(r SyncReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-reports:
			if r.Err != nil || r.Survivors != 2 {
				t.Errorf("round %d: Err %v, Survivors %d; want nil, 2", i, r.Err, r.Survivors)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no report", i)
		}
	}
	syncer.Stop()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16<<20 {
		t.Errorf("three rounds grew the heap by %d bytes", grown)
	}
}
