package udptime

import (
	"sync"
	"sync/atomic"
	"time"
)

// TickCache serves a clock reading refreshed once per tick instead of
// once per request, so the reply path of a loaded server never touches
// the disciplined clock's lock: under a million requests per second a
// per-request src.Now() would serialize every shard behind one mutex,
// while the cache costs one atomic pointer load per reply.
//
// The cache stores the reading frozen: every Now within a tick returns
// the identical <C, E, synced> triple (replies within a tick are
// byte-identical on the wire). Freezing C makes the reading stale by up
// to the refresh interval, so E is widened once per refresh by
//
//	widen = stretch(tick, driftPPM) = ceil((1 + driftPPM·1e-6) · tick)
//
// — the true time can advance past the frozen C by at most the
// snapshot's age times (1+delta) on the server's own error scale, so
// the widened interval still contains it. This is the staleness bound
// of DESIGN.md §16: within a tick E is constant (it never decreases),
// and at each tick boundary the cached reading equals a fresh read of
// the source plus exactly the one-tick widening. The bound assumes the
// snapshot served is less than a tick old, and the refresher goroutine
// alone cannot promise that: it is only as punctual as the scheduler
// (Lateness reports how late it has run). A reader with a loop of its
// own — the serving loop — therefore calls refreshIfStale before it
// reads, and refreshes inline when the refresher has fallen behind.
type TickCache struct {
	src   ClockSource
	tick  time.Duration
	widen time.Duration

	cur      atomic.Pointer[tickReading]
	lateNano atomic.Int64 // worst observed refresh lateness beyond one tick

	stop     chan struct{}
	done     chan struct{}
	started  bool // a refresher goroutine owns done
	stopOnce sync.Once
}

// tickReading is one frozen snapshot; e carries the widening already.
type tickReading struct {
	at     time.Time // monotonic instant just before the source was read
	c      time.Time
	e      time.Duration
	synced bool
}

var _ ClockSource = (*TickCache)(nil)

// NewTickCache returns a started cache over src refreshing every tick
// (default one millisecond when tick <= 0). driftPPM is the drift bound
// of the clock behind src, charged into the per-tick widening. Stop
// releases the refresher.
func NewTickCache(src ClockSource, tick time.Duration, driftPPM float64) *TickCache {
	tc := newTickCacheStopped(src, tick, driftPPM)
	tc.started = true
	go tc.run()
	return tc
}

// newTickCacheStopped builds the cache, takes the first snapshot, and
// does not start the refresher — the bench hook and the property tests
// drive refresh by hand for deterministic, allocation-accounted runs.
func newTickCacheStopped(src ClockSource, tick time.Duration, driftPPM float64) *TickCache {
	if tick <= 0 {
		tick = time.Millisecond
	}
	tc := &TickCache{
		src:   src,
		tick:  tick,
		widen: stretch(tick, driftPPM),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	tc.refresh()
	return tc
}

// Now implements ClockSource from the frozen snapshot: one atomic load,
// no locks, no clock reads.
func (tc *TickCache) Now() (time.Time, time.Duration, bool) {
	r := tc.cur.Load()
	return r.c, r.e, r.synced
}

// Tick returns the refresh interval.
func (tc *TickCache) Tick() time.Duration { return tc.tick }

// Widen returns the per-tick error widening applied to every snapshot.
func (tc *TickCache) Widen() time.Duration { return tc.widen }

// Lateness returns the worst observed gap between consecutive refreshes
// beyond the nominal tick — the amount by which the documented
// staleness bound has been stretched by scheduling delay.
func (tc *TickCache) Lateness() time.Duration {
	return time.Duration(tc.lateNano.Load())
}

// Stop halts the refresher; idempotent and safe to call concurrently.
// The last snapshot remains readable.
func (tc *TickCache) Stop() {
	tc.stopOnce.Do(func() {
		close(tc.stop)
		if tc.started {
			<-tc.done
		}
	})
}

// refresh takes a fresh reading of the source and publishes it widened.
// Publication is one atomic pointer swap of an immutable snapshot, so a
// reply served exactly at a tick boundary observes either the complete
// old triple or the complete new one — never a mix of the two, and in
// both cases an error bound no narrower than a fresh read of the source
// at the instant that snapshot was taken (the widening only adds). The
// refresher and the serving loops may refresh at once; a reading taken
// earlier never replaces one taken later, so the published snapshot
// only ever gets younger.
func (tc *TickCache) refresh() {
	at := time.Now()
	c, e, synced := tc.src.Now()
	if e < 0 {
		e = 0
	}
	r := &tickReading{at: at, c: c, e: e + tc.widen, synced: synced}
	for {
		old := tc.cur.Load()
		if old != nil && at.Before(old.at) {
			return
		}
		if tc.cur.CompareAndSwap(old, r) {
			return
		}
	}
}

// refreshIfStale refreshes inline when the published snapshot is a tick
// old or more, so that on return it is less than a tick old whatever
// the refresher goroutine's punctuality.
func (tc *TickCache) refreshIfStale() {
	if time.Since(tc.cur.Load().at) >= tc.tick {
		tc.refresh()
	}
}

func (tc *TickCache) run() {
	defer close(tc.done)
	ticker := time.NewTicker(tc.tick)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-tc.stop:
			return
		case now := <-ticker.C:
			if late := now.Sub(last) - tc.tick; late > tc.Lateness() {
				tc.lateNano.Store(int64(late))
			}
			last = now
			tc.refresh()
		}
	}
}
