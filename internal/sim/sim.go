// Package sim is the one-node face of the repository's one discrete-event
// kernel. It replaces the wall-clock testbed of the paper's experiments
// (the Xerox Research Internet) with a virtual real-time axis: events are
// values filed at absolute virtual times and executed in time order, with
// FIFO ordering among events at the same instant. A seeded PRNG makes
// every run reproducible.
//
// A Simulator is a one-node shard.Kernel plus a table of handlers, one per
// event kind. A package that files events registers a handler and gets its
// kind back (Register); an event is the kind and two numbers, a tag naming
// what it is for (a node, an envelope, a fault) and a generation, and when
// the kernel hands it back the Simulator runs its kind's handler on them.
// Ordering pending events and advancing virtual time is the kernel's work
// alone: every event is created by node 0, so the kernel's (At, From, Seq)
// order is (time, scheduling order) here, and a run is single-threaded,
// which is what lets the test suite assert the paper's theorem bounds on
// every simulated state.
//
// There is no cancelling. A timer that must die with something (a node's
// ticks with its incarnation) carries that thing's generation, and its
// handler drops it when it fires under a newer one: the handler returns
// false, and the event counts as cancelled, not executed.
//
// AfterCall, with Run, is the one closure-shaped entry: a table of
// call(arg) pairs behind a kind of its own, whose slots are reused, so a
// warm schedule/fire cycle performs no allocation.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/obs"
	"disttime/internal/sim/shard"
)

// Kind names a family of events: Register hands one out per handler.
type Kind uint16

// Handler runs one event of its kind, given the tag and generation it was
// filed with. It reports whether the event was live: a stale one, filed
// under a generation its subject has outlived, does nothing and returns
// false, and is counted as cancelled.
type Handler func(tag, gen uint32) bool

// callKind is the kind of AfterCall's events, registered by New.
const callKind Kind = 0

// call is what one AfterCall event will run.
type call struct {
	fn  func(any)
	arg any
}

// Simulator owns the kernel, the handler table, and the run's PRNG.
type Simulator struct {
	k        *shard.Kernel
	p        *shard.Proc // the kernel's context: the clock, and where events are filed
	rng      *rand.Rand
	handlers []Handler
	calls    []call   // AfterCall's pending calls, the event's tag indexing them
	free     []uint32 // slots of calls no pending event holds
	pending  int      // events filed and not yet handed back
	horizon  float64  // the latest time ever scheduled: how far Run must go
	steps    uint64

	// Optional observability handles (nil until Observe). Counter
	// methods are nil-safe, so the hot paths bump them unconditionally.
	obsScheduled *obs.Counter
	obsExecuted  *obs.Counter
	obsCancelled *obs.Counter
}

// Observe registers the simulator's event counters in reg: events
// scheduled, executed, and dropped as stale (cancelled). Attaching a
// registry does not perturb the simulation — counters are bumped from the
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
	s.Register(s.runCall) // callKind
	return s
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.p.Now() }

// Rand returns the run's PRNG. All stochastic choices in a simulation must
// draw from it (or from PRNGs derived from it) to preserve determinism.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far. Stale events are
// not counted.
func (s *Simulator) Steps() uint64 { return s.steps }

// Register adds h to the handler table and returns the kind that files
// events for it.
func (s *Simulator) Register(h Handler) Kind {
	s.handlers = append(s.handlers, h)
	return Kind(len(s.handlers) - 1)
}

// At files an event of kind k, carrying tag and gen, at absolute virtual
// time at. A time before now or NaN panics, since it would silently
// reorder causality, and so does +Inf: no run reaches it, so Run would
// never return.
func (s *Simulator) At(at float64, k Kind, tag, gen uint32) {
	if !(at >= s.Now()) || math.IsInf(at, 1) {
		panic(fmt.Sprintf("sim: schedule at %v, want a finite time no earlier than now %v", at, s.Now()))
	}
	s.horizon = max(s.horizon, at)
	s.pending++
	s.p.At(0, at, uint16(k), tag, float64(gen), 0)
	s.obsScheduled.Inc()
}

// After files an event of kind k d seconds from now. Negative delays
// panic.
func (s *Simulator) After(d float64, k Kind, tag, gen uint32) {
	s.At(s.Now()+d, k, tag, gen)
}

// dispatch is the Simulator as the kernel's handler, kept off the
// Simulator's own method set.
type dispatch Simulator

// Event runs the handler of the event's kind and counts what it did.
func (d *dispatch) Event(_ *shard.Proc, ev shard.Ev) {
	s := (*Simulator)(d)
	s.pending--
	if !s.handlers[ev.Kind](ev.Tag, uint32(ev.A)) {
		s.obsCancelled.Inc()
		return
	}
	s.steps++
	s.obsExecuted.Inc()
}

// AfterCall schedules call(arg) d seconds from now. A package-level call
// function plus a caller-pooled arg schedules an event without
// allocating.
func (s *Simulator) AfterCall(d float64, fn func(any), arg any) {
	var i uint32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = uint32(len(s.calls))
		s.calls = append(s.calls, call{})
	}
	s.calls[i] = call{fn, arg}
	s.After(d, callKind, i, 0)
}

// runCall frees the slot an AfterCall event names and runs what it held.
// The slot is freed first, so the call may schedule into it.
func (s *Simulator) runCall(i, _ uint32) bool {
	c := s.calls[i]
	s.calls[i] = call{}
	s.free = append(s.free, i)
	c.fn(c.arg)
	return true
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
// last event executed unless the latest one was stale: a stale event
// runs nothing, but the clock still passes its time to discard it.
func (s *Simulator) Run() {
	for s.pending > 0 {
		s.k.Run(s.horizon)
	}
}
