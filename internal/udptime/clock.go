// Package udptime is the real-network realization of the paper's time
// service: a UDP server answering rule MM-1 readings over the wire
// protocol, a client that measures round trips and builds transit-adjusted
// offset intervals (rule IM-2's transform), and a disciplined software
// clock that the intersection algorithm keeps synchronized.
//
// The simulation packages prove the algorithms against the paper's
// theorems; this package runs the same core.Node, the rules and the
// policy around a round, over an actual network path, so the library is
// usable as a time service, not only as a simulator.
package udptime

import (
	"fmt"
	"math"
	"sync"
	"time"

	"disttime/internal/clock"
	"disttime/internal/core"
	"disttime/internal/interval"
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

// maxDriftPPM is the largest drift bound a clock accepts: a δ above 1
// bounds nothing, and a large enough one wraps the aged error negative,
// which a server answers with silence.
const maxDriftPPM = 1e6

// checkDrift rejects a drift bound that is negative, NaN, or above
// maxDriftPPM (+Inf included).
func checkDrift(driftPPM float64) error {
	if !(driftPPM >= 0 && driftPPM <= maxDriftPPM) {
		return fmt.Errorf("udptime: drift %v ppm outside [0, %g]", driftPPM, maxDriftPPM)
	}
	return nil
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
	if err := checkDrift(driftPPM); err != nil {
		return nil, err
	}
	return &SystemClock{start: time.Now(), initialErr: initialErr, driftPPM: driftPPM}, nil
}

// Now implements ClockSource.
func (c *SystemClock) Now() (time.Time, time.Duration, bool) {
	now := time.Now()
	return now, agedError(c.initialErr, now.Sub(c.start), c.driftPPM), true
}

// DisciplinedClock is a settable software clock: a core.Node behind a
// mutex, its server running over the host's monotonic clock with rule
// MM-1 bookkeeping at DriftPPM. Real time t is monotonic seconds since the
// clock was made, read under the mutex so it never decreases, as
// clock.Clock requires; the value C is seconds since the wall time it was
// made at, so a clock never set reads the system time. Until the first
// Set or successful round its error is unbounded (E = +Inf) and it
// reports itself unsynchronized.
type DisciplinedClock struct {
	base     time.Time // creation instant, monotonic reading included
	wall     time.Time // base.Round(0): the wall time C counts from
	driftPPM float64

	mu   sync.Mutex
	node *core.Node // guarded by mu; the fields above never change
}

var _ ClockSource = (*DisciplinedClock)(nil)

// NewDisciplinedClock returns an unsynchronized disciplined clock whose
// underlying oscillator (the OS monotonic clock) is trusted to driftPPM.
func NewDisciplinedClock(driftPPM float64) (*DisciplinedClock, error) {
	if err := checkDrift(driftPPM); err != nil {
		return nil, err
	}
	srv, err := core.NewServer(0, core.Config{Clock: clock.NewDrifting(0, 0, 0), Delta: driftPPM / 1e6, InitialError: math.Inf(1)})
	if err != nil {
		return nil, err
	}
	base := time.Now()
	return &DisciplinedClock{base: base, wall: base.Round(0), driftPPM: driftPPM, node: &core.Node{Server: srv, Fn: core.IM{}}}, nil
}

// Now implements ClockSource.
func (c *DisciplinedClock) Now() (time.Time, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return reading(c.wall, c.node.Server.Reading(time.Since(c.base).Seconds()))
}

// reading converts r, C in seconds since wall, to the ClockSource triple:
// the one boundary between float64 seconds and time.Time. C truncates to
// the nanosecond and E rounds up to cover that and the float error, so
// [C−E, C+E] contains r's interval. A value no Duration holds is never
// converted (Go leaves that to the implementation) and reads as
// unsynchronized: an unbounded E, a clock never set, among them.
func reading(wall time.Time, r core.Reading) (time.Time, time.Duration, bool) {
	cNs := r.C * 1e9
	if !(math.Abs(cNs) < 0x1p63) {
		return wall, 0, false
	}
	c := time.Duration(cNs)
	eNs := r.E*1e9 + math.Abs(cNs-float64(c))
	// Each of the two products and the sum rounds by at most 2^-53 of
	// its magnitude; 2^-50 of the larger terms covers all three.
	eNs = math.Ceil(eNs + (math.Abs(cNs)+eNs)*0x1p-50)
	if !(eNs < 0x1p63) {
		return wall.Add(c), 0, false
	}
	return wall.Add(c), time.Duration(eNs), true
}

// Set disciplines the clock: from now on it reads value (advancing with
// the monotonic clock) with inherited error maxErr.
func (c *DisciplinedClock) Set(value time.Time, maxErr time.Duration) error {
	if maxErr < 0 {
		return fmt.Errorf("udptime: negative max error %v", maxErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.node.Server.SetClock(time.Since(c.base).Seconds(), value.Sub(c.wall).Seconds(), maxErr.Seconds())
	return nil
}

// sync runs one round of the node now, with fn and, if recovery, Section
// 3 recovery, over the synchronized measurements of ms. It fails with
// ErrNoMeasurements when none is synchronized and ErrInconsistent when the
// clock is left as it was. A reply's key is its poll slot, never the
// ServerID a remote chose: the node indexes per-neighbor slices by it.
func (c *DisciplinedClock) sync(fn core.SyncFunc, recovery bool, ms []Measurement) (core.Pass, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	host := time.Now()
	t, n := host.Sub(c.base).Seconds(), c.node
	ci := n.Server.Read(t)
	replies := n.Replies()
	for _, m := range ms {
		if m.Unsynchronized {
			continue
		}
		// The remote clock at arrival, on the local timeline (then ci - age).
		var age float64
		if !m.recv.IsZero() {
			age = host.Sub(m.recv).Seconds()
		}
		r := core.Reply{From: m.slot, C: ci - age + m.C.Sub(m.LocalRecv).Seconds(), E: m.E.Seconds(), RTT: m.RTT.Seconds(), Age: age}
		n.Observe(r, ci-age)
		replies = append(replies, r)
	}
	if len(replies) == 0 {
		return core.Pass{}, ErrNoMeasurements
	}
	n.Fn, n.Recovery = fn, recovery
	p := n.Sync(t, replies)
	if !p.Result.Reset && !p.Recovered {
		return p, ErrInconsistent
	}
	return p, nil
}

// applied is the interval a pass left the clock at, as offsets in
// seconds from its reading before the pass.
func applied(p core.Pass) interval.Interval {
	return interval.FromEstimate(p.After.C-p.Before.C, p.After.E)
}

// DriftPPM returns the drift bound the clock's oscillator is trusted
// to, in parts per million: the paper's delta for this clock. It never
// changes, so it is read without the lock.
func (c *DisciplinedClock) DriftPPM() float64 { return c.driftPPM }
