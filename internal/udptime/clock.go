// Package udptime is the real-network realization of the paper's time
// service: a UDP server answering rule MM-1 readings over the wire
// protocol, a client that measures round trips and builds transit-adjusted
// offset intervals (rule IM-2's transform), and a disciplined software
// clock that the intersection algorithm keeps synchronized.
//
// The simulation packages prove the algorithms against the paper's
// theorems; this package carries the same core logic onto an actual
// network path so the library is usable as a time service, not only as a
// simulator.
package udptime

import (
	"fmt"
	"math"
	"sync"
	"time"

	"disttime/internal/core"
)

// ClockSource yields clock readings with an error bound: the <C, E> pair
// of rule MM-1, plus whether the source considers itself synchronized.
// Implementations must be safe for concurrent use.
type ClockSource interface {
	Now() (c time.Time, maxErr time.Duration, synchronized bool)
}

// agedError is rule MM-1 on a clock trusted to driftPPM, in the Duration
// domain: eps plus core.AgedError's deterioration over elapsed. The
// deterioration rounds up to the nanosecond — a bound that truncates
// toward zero is a bound that lies — and eps is added as an integer, so
// it stays exact however large it is.
func agedError(eps, elapsed time.Duration, driftPPM float64) time.Duration {
	return eps + time.Duration(math.Ceil(core.AgedError(0, float64(elapsed), driftPPM/1e6)))
}

// stretch is how far true time may advance while a clock trusted to
// driftPPM measures d: (1 + driftPPM·1e-6)·d, rounded up to the
// nanosecond. It is the sleep that carries C − E across a commit-wait
// distance.
func stretch(d time.Duration, driftPPM float64) time.Duration {
	return time.Duration(math.Ceil(float64(d) * (1 + driftPPM/1e6)))
}

// SystemClock reads the operating-system clock, reporting an error that
// starts at InitialError and deteriorates at DriftPPM microseconds per
// second since creation — the rule MM-1 bookkeeping applied to a clock the
// process cannot reset.
type SystemClock struct {
	start      time.Time
	initialErr time.Duration
	driftPPM   float64
}

var _ ClockSource = (*SystemClock)(nil)

// NewSystemClock returns a system clock source. initialErr is the error
// the OS clock is trusted to at creation (e.g. from NTP statistics);
// driftPPM is the claimed drift bound in parts per million.
func NewSystemClock(initialErr time.Duration, driftPPM float64) (*SystemClock, error) {
	if initialErr < 0 {
		return nil, fmt.Errorf("udptime: negative initial error %v", initialErr)
	}
	if driftPPM < 0 {
		return nil, fmt.Errorf("udptime: negative drift %v ppm", driftPPM)
	}
	return &SystemClock{start: time.Now(), initialErr: initialErr, driftPPM: driftPPM}, nil
}

// Now implements ClockSource.
func (c *SystemClock) Now() (time.Time, time.Duration, bool) {
	now := time.Now()
	return now, agedError(c.initialErr, now.Sub(c.start), c.driftPPM), true
}

// DriftPPM returns the drift bound the OS clock is trusted to, in parts
// per million.
func (c *SystemClock) DriftPPM() float64 { return c.driftPPM }

// DisciplinedClock is a settable software clock: a value anchored to the
// process's monotonic clock, with rule MM-1 error bookkeeping (inherited
// error plus DriftPPM deterioration since the last set). Until the first
// Set it reports the system time, unsynchronized, with no error bound.
type DisciplinedClock struct {
	mu       sync.Mutex
	driftPPM float64
	anchor   time.Time // monotonic anchor (a time.Now() result)
	value    time.Time // clock value at the anchor
	epsilon  time.Duration
	synced   bool
}

var _ ClockSource = (*DisciplinedClock)(nil)

// NewDisciplinedClock returns an unsynchronized disciplined clock whose
// underlying oscillator (the OS monotonic clock) is trusted to driftPPM.
func NewDisciplinedClock(driftPPM float64) (*DisciplinedClock, error) {
	if driftPPM < 0 {
		return nil, fmt.Errorf("udptime: negative drift %v ppm", driftPPM)
	}
	now := time.Now()
	return &DisciplinedClock{driftPPM: driftPPM, anchor: now, value: now}, nil
}

// Now implements ClockSource. The error deteriorates at DriftPPM since the
// last Set.
func (c *DisciplinedClock) Now() (time.Time, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := time.Since(c.anchor)
	return c.value.Add(elapsed), agedError(c.epsilon, elapsed, c.driftPPM), c.synced
}

// Set disciplines the clock: from now on it reads value (advancing with
// the monotonic clock) with inherited error maxErr.
func (c *DisciplinedClock) Set(value time.Time, maxErr time.Duration) error {
	if maxErr < 0 {
		return fmt.Errorf("udptime: negative max error %v", maxErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.anchor = time.Now()
	c.value = value
	c.epsilon = maxErr
	c.synced = true
	return nil
}

// Adjust shifts the clock by offset and replaces the inherited error —
// the natural form when synchronizing from offset intervals.
func (c *DisciplinedClock) Adjust(offset time.Duration, maxErr time.Duration) error {
	if maxErr < 0 {
		return fmt.Errorf("udptime: negative max error %v", maxErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	current := c.value.Add(now.Sub(c.anchor))
	c.anchor = now
	c.value = current.Add(offset)
	c.epsilon = maxErr
	c.synced = true
	return nil
}

// WaitUntilAfter blocks until the clock's earliest possible reading
// C − E is strictly after t: the commit-wait primitive. While the clock
// is contained (true time inside [C−E, C+E]), returning implies true
// time has passed t — the fact the external-consistency argument of
// DESIGN.md §18 rests on.
//
// The wait computes how far C − E must still travel and sleeps that
// distance charged by the drift bound, (1 + driftPPM·1e-6), then
// re-checks, because a concurrent Set or Adjust may have moved C
// backward or widened E.
// An unsynchronized clock cannot bound C − E, so waiting on one fails
// immediately rather than committing on an advisory reading.
func (c *DisciplinedClock) WaitUntilAfter(t time.Time) error {
	for {
		now, maxErr, synced := c.Now()
		if !synced {
			return fmt.Errorf("udptime: commit-wait on unsynchronized clock")
		}
		earliest := now.Add(-maxErr)
		if earliest.After(t) {
			return nil
		}
		time.Sleep(stretch(t.Sub(earliest)+time.Nanosecond, c.DriftPPM()))
	}
}

// DriftPPM returns the drift bound the clock's oscillator is trusted
// to, in parts per million — the paper's delta for this clock, used by
// the syncer to default the IM-2 transform's transit charge.
func (c *DisciplinedClock) DriftPPM() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.driftPPM
}
