// Package core implements the paper's primary contribution: the time-server
// state machine and the two synchronization functions of Marzullo & Owicki,
// "Maintaining the Time in a Distributed System" (Stanford CSL TR 83-247,
// PODC 1983).
//
// A time server S_i maintains (rule MM-1) a clock C_i, the clock value r_i
// at its last reset, an inherited error epsilon_i, and a claimed bound
// delta_i on its drift rate. When asked the time at real time t it answers
// with the pair
//
//	<C_i(t), E_i(t)>,   E_i(t) = epsilon_i + (C_i(t) - r_i) * delta_i
//
// denoting the interval [C_i - E_i, C_i + E_i] that contains the correct
// time while delta_i is a valid bound (Theorem 1).
//
// Two synchronization functions update the clock from a set of replies:
//
//   - Algorithm MM (Section 3) adopts the neighbor whose reply, charged
//     with transit error, has a smaller maximum error than the server's own
//     (rule MM-2). The service's long-term error growth tracks its most
//     accurate clock (Theorems 2-4), but synchronization is loose
//     (Theorem 3).
//   - Algorithm IM (Section 4) intersects every reply interval with the
//     server's own and adopts the midpoint of the intersection (rule IM-2).
//     The derived interval is at least as small as the smallest input
//     (Theorem 6), asynchronism is tight (Theorem 7), and with many servers
//     the expected error growth vanishes (Theorem 8).
//
// The package also implements the Section 3 recovery heuristic (reset from
// a third server upon inconsistency), the Section 5 consonance machinery
// (rate intervals), and the baseline synchronization functions the paper
// compares against (Lamport's maximum, the median, and the mean).
package core

import (
	"fmt"
	"math"

	"disttime/internal/clock"
	"disttime/internal/interval"
)

// Reading is a time server's answer to a time request: the pair <C, E> of
// rule MM-1.
type Reading struct {
	// C is the server's clock value.
	C float64
	// E is the server's maximum error at the moment of reading.
	E float64
	// Delta is the server's claimed maximum drift rate. Exchanging the
	// claimed bounds is what lets neighbors check consonance (Section 5):
	// two clocks separating faster than Delta_i + Delta_j prove a bound
	// invalid.
	Delta float64
}

// Interval returns the real-time interval [C-E, C+E] the reading denotes.
func (r Reading) Interval() interval.Interval { return interval.FromEstimate(r.C, r.E) }

// Reply is a remote server's reading as observed by a requester, together
// with the round-trip delay the requester measured on its own clock (the
// paper's xi^i_j). Replies are the input to every synchronization function.
type Reply struct {
	// From identifies the responding server.
	From int
	// C and E are the responder's reading.
	C float64
	E float64
	// RTT is the round-trip delay measured on the requester's clock
	// between sending the request and receiving this reply (xi^i_j).
	RTT float64
	// Age is the local clock time elapsed between this reply's arrival
	// and the synchronization pass that consumes it. The paper's rules
	// apply each reply at its arrival (Age = 0); a service that collects
	// a batch before synchronizing sets Age so the reply can be
	// translated to the sync instant: the remote estimate advances with
	// the local clock and accrues delta*Age of extra drift allowance.
	Age float64
	// Delta is the responder's claimed drift bound, used for consonance
	// checks (zero when the responder does not advertise one).
	Delta float64
}

// Server is one time server's synchronization state.
type Server struct {
	id    int
	clk   clock.Clock
	osc   steerable // clk as the rate discipline steers it; nil if it cannot
	delta float64

	epsilon  float64 // inherited error (epsilon_i)
	resetRef float64 // clock value at last reset (r_i)
	rate     Rate    // the rate discipline's state; its Age is delta unsteered

	resets       int
	inconsistent int
}

// Config configures a new server.
type Config struct {
	// ID is the server's identity, echoed in its replies.
	ID int
	// Clock is the underlying hardware clock. Required.
	Clock clock.Clock
	// Delta is the claimed upper bound on the clock's drift rate. The
	// algorithms preserve correctness only when it is valid (Theorems 1
	// and 5); the recovery experiments deliberately violate it. Must be
	// non-negative.
	Delta float64
	// InitialError is the error the server starts with (the error
	// inherited from however the clock was first set).
	InitialError float64
}

// NewServer returns a server whose bookkeeping starts at real time t.
func NewServer(t float64, cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: server %d: nil clock", cfg.ID)
	}
	if !(cfg.Delta >= 0) || math.IsInf(cfg.Delta, 1) {
		return nil, fmt.Errorf("core: server %d: delta %v is negative, NaN or infinite", cfg.ID, cfg.Delta)
	}
	if !(cfg.InitialError >= 0) {
		return nil, fmt.Errorf("core: server %d: initial error %v is negative or NaN", cfg.ID, cfg.InitialError)
	}
	osc, _ := cfg.Clock.(steerable)
	return &Server{
		id:       cfg.ID,
		clk:      cfg.Clock,
		osc:      osc,
		delta:    cfg.Delta,
		rate:     Rate{Age: cfg.Delta},
		epsilon:  cfg.InitialError,
		resetRef: cfg.Clock.Read(t),
	}, nil
}

// ID returns the server's identity.
func (s *Server) ID() int { return s.id }

// Delta returns the claimed drift bound.
func (s *Server) Delta() float64 { return s.delta }

// Rate returns the rate discipline's state: the centre the clock is
// steered to, if it is, and the rate at which the server's error ages,
// delta until the discipline (Node.Discipline) steers the clock.
func (s *Server) Rate() Rate { return s.rate }

// ticks returns the oscillator's ticks between real times t0 and t, and
// whether the clock can be steered at all: the rate discipline measures
// and steers only a steerable clock, and a server on any other ages at
// delta.
func (s *Server) ticks(t0, t float64) (float64, bool) {
	if s.osc == nil {
		return 0, false
	}
	return s.osc.Ticks(t0, t), true
}

// steer runs the server's clock at r from real time t on, its value
// continuous, and ages the error at r.Age. The clock must be steerable
// (ticks).
func (s *Server) steer(t float64, r Rate) {
	s.osc.Steer(t, r.Centre, r.Steered)
	s.rate = r
}

// Epsilon returns the currently inherited error.
func (s *Server) Epsilon() float64 { return s.epsilon }

// Clock returns the underlying clock.
func (s *Server) Clock() clock.Clock { return s.clk }

// Resets returns how many times the server has reset its clock.
func (s *Server) Resets() int { return s.resets }

// Inconsistencies returns how many replies the server has found
// inconsistent with its own interval.
func (s *Server) Inconsistencies() int { return s.inconsistent }

// Read returns the server's clock value at real time t.
func (s *Server) Read(t float64) float64 { return s.clk.Read(t) }

// pendingCorrector is implemented by clocks (e.g. clock.Slewing) whose
// displayed value deliberately lags a scheduled correction; the remainder
// must be charged to the server's reported error or rule MM-1's interval
// would lie.
type pendingCorrector interface {
	PendingCorrection() float64
}

// steerable is implemented by clocks (clock.Drifting) whose rate the
// rate discipline can set: Ticks counts the oscillator between two real
// times whatever the clock is set or steered to, and Steer runs the
// clock at those ticks over 1+centre (or, steered false, at the
// oscillator) with its value continuous.
type steerable interface {
	Ticks(t0, t float64) float64
	Steer(t, centre float64, steered bool)
}

// ErrorAt returns the server's maximum error at real time t per rule MM-1:
// the inherited error plus deterioration per clock-second since the last
// reset at the aging rate, delta until the rate discipline steers the
// clock (Rate). If a fault moved the clock behind its reset reference the
// deterioration term is clamped at zero; error never shrinks by drift. A
// slewing clock's unabsorbed correction is added in full.
func (s *Server) ErrorAt(t float64) float64 {
	e := AgedError(s.epsilon, s.clk.Read(t)-s.resetRef, s.rate.Age)
	if p, ok := s.clk.(pendingCorrector); ok {
		e += math.Abs(p.PendingCorrection())
	}
	return e
}

// bounded reports whether the server has an interval at all: a server
// whose inherited error is +Inf (a clock never set) has none.
func (s *Server) bounded() bool { return !math.IsInf(s.epsilon, 1) }

// Reading answers a time request at real time t (rule MM-1).
func (s *Server) Reading(t float64) Reading {
	return Reading{C: s.clk.Read(t), E: s.ErrorAt(t), Delta: s.delta}
}

// Interval returns the server's current time interval [C-E, C+E].
func (s *Server) Interval(t float64) interval.Interval {
	return s.Reading(t).Interval()
}

// effective translates a reply to the sync instant. It returns the remote
// clock estimate advanced by the local clock time since arrival, and the
// trailing- and leading-edge errors Charge adds for the transit and the
// wait (with Age = 0, exactly the paper's quantities), at the server's
// aging rate, which bounds its own clock's drift as delta does until the
// rate discipline steers it. It credits no minimum delay: a server does
// not know its links' minima.
func (s *Server) effective(r Reply) (c, trail, lead float64) {
	age := r.Age
	if age < 0 {
		age = 0
	}
	trail, lead = Charge(r.E, r.RTT, age, s.rate.Age, 0)
	return r.C + age, trail, lead
}

// replyInterval is the reply's interval as the requester must treat it at
// the sync instant: [c - trail, c + lead].
func (s *Server) replyInterval(r Reply) interval.Interval {
	c, trail, lead := s.effective(r)
	lo, hi := Offset(c, trail, lead, 0)
	return interval.Interval{Lo: lo, Hi: hi}
}

// ConsistentWith reports whether the reply is consistent with the server's
// own interval at real time t, after transit adjustment. Inconsistent
// replies are ignored by rule MM-2 ("any reply that is inconsistent with
// S_i is ignored") and signal that at least one of the two servers is
// incorrect.
func (s *Server) ConsistentWith(t float64, r Reply) bool {
	c, trail, lead := s.effective(r)
	lo, hi := Offset(c, trail, lead, s.clk.Read(t))
	return Consistent(lo, hi, s.ErrorAt(t))
}

// SetClock resets the server's clock and bookkeeping to value with
// inherited error err at real time t. This is the primitive every
// synchronization rule reduces to; it is exported for the recovery policy
// and for constructing experiment states.
func (s *Server) SetClock(t, value, err float64) {
	s.clk.Set(t, value)
	// A stuck clock may refuse the set (Section 1.1); bookkeeping must
	// follow the clock's actual value or the error accounting would lie.
	actual := s.clk.Read(t)
	s.epsilon = err
	s.resetRef = actual
	s.resets++
}

// RaiseDelta increases the server's claimed drift bound to newDelta at
// real time t, repairing the bookkeeping: deterioration since the last
// reset was charged at the aging rate (the old, invalid bound unless the
// clock is steered), so the difference is added to the inherited error
// and the error ages at newDelta until the next rate step. If the clock
// value adopted at the last reset was correct, the repaired interval is
// correct again — this is how a server whose bound is exposed as invalid
// (Section 5) rejoins the service as an honest, if poor, citizen.
// Lowering the bound is refused:
// a smaller claim can never be justified by observation alone, and so is
// a NaN or infinite one, which would leave E NaN or unbounded for good.
func (s *Server) RaiseDelta(t, newDelta float64) error {
	if newDelta < s.delta {
		return fmt.Errorf("core: server %d: cannot lower delta %v -> %v", s.id, s.delta, newDelta)
	}
	if math.IsNaN(newDelta) || math.IsInf(newDelta, 1) {
		return fmt.Errorf("core: server %d: delta %v is NaN or infinite", s.id, newDelta)
	}
	if raise := newDelta - s.rate.Age; raise > 0 {
		s.epsilon = AgedError(s.epsilon, s.clk.Read(t)-s.resetRef, raise)
		s.rate.Age = newDelta
	}
	s.delta = newDelta
	return nil
}

// Adopt resets the server from an arbitrary reply, unconditionally, with
// the usual transit charge (epsilon <- E_j + (1+delta_i) xi^i_j,
// C_i <- C_j, r_i <- C_j). It is the primitive of the Section 3 recovery
// heuristic: a server that finds itself inconsistent with a neighbor
// "resets to the value of any third server".
func (s *Server) Adopt(t float64, r Reply) {
	c, _, lead := s.effective(r)
	s.SetClock(t, c, lead)
}

// noteInconsistent counts an ignored, inconsistent reply.
func (s *Server) noteInconsistent() { s.inconsistent++ }
