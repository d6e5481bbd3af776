package udptime

import (
	"sync"
	"sync/atomic"
	"time"
)

// TickCache serves a clock reading refreshed once per tick instead of
// once per request: every Now within a tick returns the identical
// <C, E, synced> triple at the cost of one atomic pointer load. Freezing
// C makes the reading stale by up to the refresh interval, so E is
// widened once per refresh by
//
//	widen = stretch(tick, driftPPM) = ceil((1 + driftPPM·1e-6) · tick)
//
// The server no longer answers from one: it reads its source once per
// received batch (see Server), which needs no widening and no
// goroutine. What is left here is what cmd/bench's
// udptime.tickcache.now_ns stage compiles against, until a [benchmark]
// PR drops that stage and this file with it.
type TickCache struct {
	src   ClockSource
	tick  time.Duration
	widen time.Duration

	cur atomic.Pointer[tickReading]

	stop     chan struct{}
	done     chan struct{}
	started  bool // a refresher goroutine owns done
	stopOnce sync.Once
}

// tickReading is one frozen snapshot; e carries the widening already.
type tickReading struct {
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
// does not start the refresher — the property tests drive refresh by
// hand.
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

// refresh takes a fresh reading of the source and publishes it widened:
// one atomic pointer store of an immutable snapshot, so a reader sees
// either the complete old triple or the complete new one.
func (tc *TickCache) refresh() {
	c, e, synced := tc.src.Now()
	if e < 0 {
		e = 0
	}
	tc.cur.Store(&tickReading{c: c, e: e + tc.widen, synced: synced})
}

func (tc *TickCache) run() {
	defer close(tc.done)
	ticker := time.NewTicker(tc.tick)
	defer ticker.Stop()
	for {
		select {
		case <-tc.stop:
			return
		case <-ticker.C:
			tc.refresh()
		}
	}
}
