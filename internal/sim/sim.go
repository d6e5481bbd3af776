// Package sim is the closure face of the repository's one discrete-event
// kernel. It replaces the wall-clock testbed of the paper's experiments
// (the Xerox Research Internet) with a virtual real-time axis: events are
// callbacks scheduled at absolute virtual times and executed in time order,
// with FIFO ordering among events at the same instant. A seeded PRNG makes
// every run reproducible.
//
// A Simulator is a one-node shard.Kernel plus a table of the callbacks
// its pending events stand for. Scheduling takes a slot of the table
// (free slots wait on a stack) and files a kernel event carrying the slot
// number; when the kernel hands the event back, the slot is freed and
// what it held runs. Ordering pending events and advancing virtual time is
// the kernel's work alone: every event is created by node 0, so the
// kernel's (At, From, Seq) order is (time, scheduling order) here, and a
// run is single-threaded, which is what lets the test suite assert the
// paper's theorem bounds on every simulated state.
//
// Performance model: kernel events are values and table slots are reused,
// so a warm schedule/fire cycle performs no allocation. The table and the
// kernel's pending set keep their high-water mark for the Simulator's
// life. A slot's generation advances each time it is freed, so an Event
// handle kept past its event's firing no longer names anything and
// cancelling it is a no-op.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/obs"
	"disttime/internal/sim/shard"
)

// Event is a handle on a scheduled callback. Cancel prevents a pending
// event from running; cancelling a fired or already-cancelled event, or
// the zero Event, is a no-op.
type Event struct {
	s    *Simulator
	slot uint32
	gen  uint32 // the slot's generation when the event was scheduled
}

// Cancel prevents the event from firing.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	if sl := &e.s.slots[e.slot]; sl.gen == e.gen {
		sl.fn, sl.call, sl.arg = nil, nil, nil
	}
}

// slot holds what one pending event will run: fn(), or call(arg) in the
// closure-free form, or nothing once cancelled.
type slot struct {
	fn   func()
	call func(any)
	arg  any
	gen  uint32
}

// Simulator owns the kernel, the callback table, and the run's PRNG.
type Simulator struct {
	k       *shard.Kernel
	p       *shard.Proc // the kernel's context: the clock, and where events are filed
	rng     *rand.Rand
	slots   []slot
	free    []uint32 // slots no pending event holds
	horizon float64  // the latest time ever scheduled: how far Run must go
	steps   uint64

	// Optional observability handles (nil until Observe). Counter
	// methods are nil-safe, so the hot paths bump them unconditionally.
	obsScheduled *obs.Counter
	obsExecuted  *obs.Counter
	obsCancelled *obs.Counter
}

// Observe registers the simulator's event counters in reg: events
// scheduled, executed, and cancelled-before-firing. Attaching a registry
// does not perturb the simulation — counters are bumped from the
// existing code paths, no events are added, and the PRNG is untouched.
func (s *Simulator) Observe(reg *obs.Registry) {
	s.obsScheduled = reg.Counter("sim_events_scheduled_total")
	s.obsExecuted = reg.Counter("sim_events_executed_total")
	s.obsCancelled = reg.Counter("sim_events_cancelled_total")
}

// New returns a simulator at virtual time zero whose PRNG is seeded with
// seed. The same seed always reproduces the same run. The kernel starts
// no goroutine, so there is nothing to close.
func New(seed uint64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5))}
	k, err := shard.New(shard.Config{Nodes: 1, Handler: (*dispatch)(s)})
	if err != nil {
		panic(err) // the configuration is a constant
	}
	s.k, s.p = k, k.Proc()
	return s
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.p.Now() }

// Rand returns the run's PRNG. All stochastic choices in a simulation must
// draw from it (or from PRNGs derived from it) to preserve determinism.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far. Cancelled events
// are not counted.
func (s *Simulator) Steps() uint64 { return s.steps }

// schedule puts one callback in the table and files its kernel event. A
// time before now or NaN panics, and so does +Inf: no run reaches it, so
// Run would never return.
func (s *Simulator) schedule(at float64, fn func(), call func(any), arg any) Event {
	if !(at >= s.Now()) || math.IsInf(at, 1) {
		panic(fmt.Sprintf("sim: schedule at %v, want a finite time no earlier than now %v", at, s.Now()))
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.fn, sl.call, sl.arg = fn, call, arg
	s.horizon = max(s.horizon, at)
	s.p.At(0, at, 0, i, 0, 0)
	s.obsScheduled.Inc()
	return Event{s: s, slot: i, gen: sl.gen}
}

// dispatch is the Simulator as the kernel's handler, kept off the
// Simulator's own method set.
type dispatch Simulator

// Event frees the slot the kernel event names and runs what it held. The
// slot is freed first, so the callback may schedule into it.
func (d *dispatch) Event(_ *shard.Proc, ev shard.Ev) {
	s := (*Simulator)(d)
	sl := &s.slots[ev.Tag]
	fn, call, arg := sl.fn, sl.call, sl.arg
	sl.fn, sl.call, sl.arg = nil, nil, nil
	sl.gen++
	s.free = append(s.free, ev.Tag)
	if fn == nil && call == nil {
		s.obsCancelled.Inc()
		return
	}
	s.steps++
	s.obsExecuted.Inc()
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (or at NaN) panics: it would silently reorder causality.
func (s *Simulator) At(at float64, fn func()) Event {
	return s.schedule(at, fn, nil, nil)
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Simulator) After(d float64, fn func()) Event {
	return s.schedule(s.Now()+d, fn, nil, nil)
}

// AtCall schedules call(arg) at absolute virtual time at. It is the
// closure-free form of At for hot paths: a package-level call function plus
// a caller-pooled arg schedules an event without allocating a closure.
func (s *Simulator) AtCall(at float64, call func(any), arg any) Event {
	return s.schedule(at, nil, call, arg)
}

// AfterCall schedules call(arg) d seconds from now, without a closure.
func (s *Simulator) AfterCall(d float64, call func(any), arg any) Event {
	return s.schedule(s.Now()+d, nil, call, arg)
}

// Every schedules fn to run every period seconds, starting period seconds
// from now, until the returned stop function is called. period must be
// positive.
func (s *Simulator) Every(period float64, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	stopped := false
	var tick func()
	var pending Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = s.After(period, tick)
		}
	}
	pending = s.After(period, tick)
	return func() {
		if stopped {
			return
		}
		stopped = true
		pending.Cancel()
	}
}

// RunUntil executes events with time <= t and then advances the virtual
// clock to exactly t. A t before Now (or NaN) panics.
func (s *Simulator) RunUntil(t float64) {
	if !(t >= s.Now()) {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.Now()))
	}
	s.k.Run(t)
}

// Run executes events until none is pending. The clock rests on the
// latest time anything was ever scheduled for, which is the time of the
// last event executed unless the latest one was cancelled: a cancelled
// event runs nothing, but the clock still passes its time to discard it.
func (s *Simulator) Run() {
	for len(s.free) < len(s.slots) {
		s.k.Run(s.horizon)
	}
}
