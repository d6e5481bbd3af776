package udptime

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"disttime/internal/hlc"
)

// WaitUntilAfter blocks until the clock's earliest possible reading
// C − E is strictly after t: the commit-wait primitive. While the clock
// is contained (true time inside [C−E, C+E]), returning implies true
// time has passed t — the fact the external-consistency argument of
// DESIGN.md §18 rests on.
//
// The wait sleeps the distance C − E must still travel, charged by the
// drift bound, then re-checks: a concurrent Set or sync round may have
// moved C back or widened E. An unsynchronized clock cannot bound C − E,
// so waiting on one fails at once.
func (c *DisciplinedClock) WaitUntilAfter(t time.Time) error {
	for {
		now, maxErr, synced := c.Now()
		if !synced {
			return errors.New("udptime: commit-wait on unsynchronized clock")
		}
		earliest := now.Add(-maxErr)
		if earliest.After(t) {
			return nil
		}
		time.Sleep(stretch(t.Sub(earliest)+time.Nanosecond, c.DriftPPM()))
	}
}

func TestWaitUntilAfterUnsynchronized(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.WaitUntilAfter(time.Now()); err == nil {
		t.Fatal("WaitUntilAfter on unsynchronized clock succeeded")
	}
}

func TestWaitUntilAfter(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Set(time.Now(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	now, maxErr, _ := dc.Now()
	target := now.Add(maxErr) // the latest bound: a commit-wait of ~2E
	start := time.Now()
	if err := dc.WaitUntilAfter(target); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < maxErr {
		t.Errorf("wait returned after %v, want at least E = %v", elapsed, maxErr)
	}
	c, e, _ := dc.Now()
	if earliest := c.Add(-e); !earliest.After(target) {
		t.Errorf("after wait C-E = %v, not after target %v", earliest, target)
	}
}

func TestWaitUntilAfterPastTargetReturnsImmediately(t *testing.T) {
	dc, err := NewDisciplinedClock(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Set(time.Now(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := dc.WaitUntilAfter(start.Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("wait on a past target took %v", elapsed)
	}
}

// TestQueryHLC drives one version-3 exchange end to end on each serving
// backend: the client's timestamp reaches the server, the server's
// reply timestamp dominates it, and the client folds the reply back
// into its own clock.
func TestQueryHLC(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			srv, err := b.new("127.0.0.1:0", 7, src)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			clock := hlc.New(99)
			c := NewClient(time.Second, nil, WithHLC(clock))
			before := clock.Last()
			m, err := c.Query(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if m.TS == (hlc.Timestamp{}) {
				t.Fatal("v3 measurement carries no timestamp")
			}
			if m.TS.Node != 7 {
				t.Errorf("server timestamp node = %d, want 7", m.TS.Node)
			}
			if !before.Before(m.TS) {
				t.Errorf("server timestamp %v does not dominate client send %v", m.TS, before)
			}
			if after := clock.Last(); !m.TS.Before(after) {
				t.Errorf("client clock %v did not advance past server timestamp %v", after, m.TS)
			}
			if srv.Requests() != 1 {
				t.Errorf("server answered %d requests, want 1", srv.Requests())
			}
		})
	}
}

// TestQueryHLCAgainstV1Measurement pins that a client without WithHLC
// still speaks version 1 to the same server (mixed fleets interoperate)
// and gets a zero TS.
func TestQueryWithoutHLCStaysV1(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", 7, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(time.Second, nil)
	m, err := c.Query(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if m.TS != (hlc.Timestamp{}) {
		t.Errorf("v1 measurement carries timestamp %v", m.TS)
	}
}

// TestExternalConsistencyReal runs the commit-wait workload on the real
// substrate: three servers with deliberately skewed but contained
// disciplined clocks, one HLC client per server, transactions performed
// strictly one after another across servers. Because each transaction
// commit-waits until its own C − E passes its stamped timestamp, and
// every clock is contained, a transaction completing in real time before
// the next starts must carry the smaller timestamp — with no message
// exchanged between consecutive transactions, physical time alone
// carries the order.
func TestExternalConsistencyReal(t *testing.T) {
	if testing.Short() {
		t.Skip("commit-waits are real sleeps")
	}
	const (
		servers = 3
		txns    = 51
		maxErr  = 500 * time.Microsecond
	)
	rng := rand.New(rand.NewPCG(42, 99))

	clocks := make([]*DisciplinedClock, servers)
	hlcs := make([]*hlc.Clock, servers)
	clients := make([]*Client, servers)
	for i := range clocks {
		dc, err := NewDisciplinedClock(100)
		if err != nil {
			t.Fatal(err)
		}
		// A skew inside the claimed bound: the clock is wrong by offset
		// but |offset| <= maxErr, so containment holds throughout.
		offset := time.Duration(rng.Int64N(int64(maxErr))) - maxErr/2
		if err := dc.Set(time.Now().Add(offset), maxErr); err != nil {
			t.Fatal(err)
		}
		clocks[i] = dc
		hlcs[i] = hlc.New(uint32(i))
		clients[i] = NewClient(time.Second, dc, WithHLC(hlcs[i]))
	}

	var last hlc.Timestamp
	for i := 0; i < txns; i++ {
		s := rng.IntN(servers)
		ts := hlcs[s].Now(hlcWall(clocks[s]))
		if err := clocks[s].WaitUntilAfter(time.Unix(0, ts.Wall)); err != nil {
			t.Fatal(err)
		}
		// Committed: this transaction completed in real time before the
		// next starts, so its timestamp must be the smaller one.
		if !last.Before(ts) {
			t.Fatalf("txn %d on server %d: timestamp %v does not exceed previous commit %v",
				i, s, ts, last)
		}
		last = ts
	}
}
