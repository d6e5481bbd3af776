package udptime

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// steppedSource is a hand-driven clock for deterministic cache tests:
// each call to set publishes a new reading.
type steppedSource struct {
	mu     sync.Mutex
	c      time.Time
	e      time.Duration
	synced bool
}

func (s *steppedSource) set(c time.Time, e time.Duration, synced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c, s.e, s.synced = c, e, synced
}

func (s *steppedSource) Now() (time.Time, time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c, s.e, s.synced
}

// TestTickCacheProperty drives a stopped cache through randomized
// refresh rounds and checks the two properties its comment claims:
//
//  1. at each tick boundary the cached reading equals a fresh read of
//     the source plus exactly one tick's widening, and
//  2. within a tick the reading is frozen — E never decreases (or
//     changes at all) between refreshes.
func TestTickCacheProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x71c4, 0xcafe))
	const tick = 10 * time.Millisecond
	const driftPPM = 100.0
	widen := stretch(tick, driftPPM)
	if widen <= tick {
		t.Fatalf("widening %v must exceed the tick %v for a positive drift bound", widen, tick)
	}

	src := &steppedSource{}
	base := time.Unix(0, 1_700_000_000_000_000_000)
	src.set(base, time.Millisecond, true)
	tc := newTickCacheStopped(src, tick, driftPPM)
	defer tc.Stop()
	if tc.widen != widen {
		t.Fatalf("widen = %v, want %v", tc.widen, widen)
	}

	for round := 0; round < 200; round++ {
		// A random fresh reading, sometimes unsynchronized, sometimes
		// with a negative error (a broken source the cache must clamp).
		c := base.Add(time.Duration(rng.Int64N(int64(time.Hour))))
		e := time.Duration(rng.Int64N(int64(time.Second)))
		if rng.IntN(20) == 0 {
			e = -e
		}
		synced := rng.IntN(10) != 0
		src.set(c, e, synced)
		tc.refresh()

		wantE := e
		if wantE < 0 {
			wantE = 0
		}
		wantE += widen

		// Property 1: boundary reading = fresh read + exactly one widening.
		gotC, gotE, gotSynced := tc.Now()
		if !gotC.Equal(c) || gotE != wantE || gotSynced != synced {
			t.Fatalf("round %d: cached <%v, %v, %v>, want <%v, %v, %v>",
				round, gotC, gotE, gotSynced, c, wantE, synced)
		}
		// Corollary the serving path depends on: the boundary reply is
		// never narrower than a fresh read — widening only adds, and the
		// negative-error clamp can only raise the bound further.
		if _, freshE, _ := src.Now(); gotE < freshE {
			t.Fatalf("round %d: cached error %v narrower than fresh %v", round, gotE, freshE)
		}

		// Property 2: the reading is frozen between refreshes — repeated
		// reads are identical, so E cannot decrease within a tick even as
		// the source moves underneath.
		src.set(c.Add(time.Minute), e/2+time.Millisecond, !synced)
		for i := 0; i < 5; i++ {
			c2, e2, s2 := tc.Now()
			if !c2.Equal(gotC) || e2 != gotE || s2 != gotSynced {
				t.Fatalf("round %d read %d: reading moved within a tick: <%v, %v, %v> -> <%v, %v, %v>",
					round, i, gotC, gotE, gotSynced, c2, e2, s2)
			}
		}
	}
}

// TestTickCacheBoundaryConcurrent pins the tick-boundary race: readers
// hammer Now while refreshes publish new snapshots underneath them. A
// reply served exactly at a boundary must carry either the old widened
// reading or the new one, whole — never a torn <C, E, synced> mix of
// the two, never an E narrower than the fresh source error behind the
// snapshot, and never a snapshot older than one already observed. The
// round index rides in C, so every observed triple is checkable against
// the pre-published table. This test is part of the -race pass.
func TestTickCacheBoundaryConcurrent(t *testing.T) {
	const tick = 5 * time.Millisecond
	const driftPPM = 200.0
	const rounds = 400
	widen := stretch(tick, driftPPM)

	// Pre-publish every round's reading so readers can verify without
	// coordinating with the writer.
	type snap struct {
		e      time.Duration // widened error the cache must serve
		fresh  time.Duration // the source's own (un-widened) error
		synced bool
	}
	rng := rand.New(rand.NewPCG(0xb0a2, 0x17))
	base := time.Unix(0, 1_600_000_000_000_000_000)
	cs := make([]time.Time, rounds)
	es := make([]time.Duration, rounds)
	syncs := make([]bool, rounds)
	table := make(map[int64]snap, rounds)
	for i := range cs {
		cs[i] = base.Add(time.Duration(i) * time.Second)
		es[i] = time.Duration(rng.Int64N(int64(time.Second)))
		syncs[i] = rng.IntN(4) != 0
		table[cs[i].UnixNano()] = snap{e: es[i] + widen, fresh: es[i], synced: syncs[i]}
	}

	src := &steppedSource{}
	src.set(cs[0], es[0], syncs[0])
	tc := newTickCacheStopped(src, tick, driftPPM)
	defer tc.Stop()

	const readers = 4
	var stop atomic.Bool
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := int64(-1)
			for !stop.Load() {
				c, e, synced := tc.Now()
				want, ok := table[c.UnixNano()]
				if !ok {
					errs[r] = fmt.Errorf("reader %d: unknown snapshot clock %v", r, c)
					return
				}
				if e != want.e || synced != want.synced {
					errs[r] = fmt.Errorf("reader %d: torn snapshot <%v, %v, %v>, want <%v, %v, %v>",
						r, c, e, synced, c, want.e, want.synced)
					return
				}
				if e < want.fresh {
					errs[r] = fmt.Errorf("reader %d: error %v narrower than fresh %v", r, e, want.fresh)
					return
				}
				round := int64(c.Sub(base) / time.Second)
				if round < last {
					errs[r] = fmt.Errorf("reader %d: snapshot went backward, round %d after %d", r, round, last)
					return
				}
				last = round
			}
		}(r)
	}
	for i := 1; i < rounds; i++ {
		src.set(cs[i], es[i], syncs[i])
		tc.refresh()
	}
	stop.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTickCacheLive sanity-checks the running refresher: the cached
// reading tracks a live SystemClock (staying within a generous staleness
// bound), and Stop is idempotent and leaves the last reading readable.
func TestTickCacheLive(t *testing.T) {
	src, err := NewSystemClock(time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTickCache(src, time.Millisecond, 50)
	time.Sleep(20 * time.Millisecond)
	c, e, synced := tc.Now()
	fresh, freshE, _ := src.Now()
	if age := fresh.Sub(c); age < 0 || age > 250*time.Millisecond {
		t.Fatalf("cached clock is %v old, want within (0, 250ms]", age)
	}
	if e < freshE {
		// The widened cached error can only exceed a fresh error taken
		// later within the same tick by construction; a smaller value
		// means the widening went missing.
		t.Fatalf("cached error %v below fresh error %v", e, freshE)
	}
	if !synced {
		t.Fatal("system clock source must report synchronized")
	}
	tc.Stop()
	tc.Stop() // idempotent
	if c2, _, _ := tc.Now(); c2.IsZero() {
		t.Fatal("last reading must remain readable after Stop")
	}
}
