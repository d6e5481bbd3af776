package core

import (
	"math"
	"sort"
)

// SyncFunc is a synchronization function F in the paper's Section 1.2
// characterization: each server periodically computes
//
//	C_i(t) <- F(C_i1(t), C_i2(t), ..., C_ik(t))
//
// over the replies it collected. Implementations mutate the server's clock
// and error bookkeeping; the service layer supplies replies in arrival
// order (increasing RTT for a simultaneous broadcast, as in the Theorem 2
// analysis).
type SyncFunc interface {
	// Name identifies the function in experiment output.
	Name() string
	// Sync processes the replies collected at real time t.
	Sync(s *Server, t float64, replies []Reply) Result
}

// Result reports what a synchronization pass did.
type Result struct {
	// Reset is true when the server's clock was set.
	Reset bool
	// Accepted counts replies that triggered or contributed to a reset.
	Accepted int
	// Inconsistent lists indices of replies found inconsistent with the
	// server's interval. Non-empty means at least one of the two servers
	// involved is incorrect and the Section 3 recovery policy should run.
	Inconsistent []int
}

// MM is algorithm MM: minimization of the maximum error. Rule MM-2 is
// applied to each reply in arrival order: a consistent reply whose
// transit-charged error E_j + (1+delta_i) xi^i_j is at most the server's
// current error causes a reset to that neighbor's clock.
type MM struct{}

// Name returns "MM".
func (MM) Name() string { return "MM" }

// Sync applies rule MM-2 to each reply in order.
func (MM) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	for i, r := range replies {
		if !s.ConsistentWith(t, r) {
			s.noteInconsistent()
			res.Inconsistent = append(res.Inconsistent, i)
			continue
		}
		c, _, lead := s.effective(r, s.Read(t))
		if lead <= s.ErrorAt(t) {
			s.SetClock(t, c, lead)
			res.Reset = true
			res.Accepted++
		}
	}
	return res
}

// IM is algorithm IM: intersection of the time intervals. Rule IM-2
// transforms each reply <C_j, E_j> into the offset interval
//
//	[T_j, L_j] = [C_j - E_j - C_i,  C_j + E_j + (1+delta_i) xi^i_j - C_i]
//
// and intersects them all into [a, b]. If the intersection is non-empty the
// service is consistent and the server resets to its midpoint:
// epsilon <- (b-a)/2, C_i <- C_i + (a+b)/2.
type IM struct {
	// ExcludeSelf drops the server's own interval from the intersection.
	// The paper's rule IM-2 intersects replies only, but its Theorem 5
	// proof notes the result is the intersection with the server's own
	// (still correct) interval; including self is both safer and the
	// default.
	ExcludeSelf bool
	// DropInconsistent pre-filters replies that are individually
	// inconsistent with the server's own interval instead of failing the
	// whole pass, mirroring MM-2's "any reply that is inconsistent with
	// S_i is ignored". The remaining replies must still mutually
	// intersect for a reset to happen.
	DropInconsistent bool
	// FloorError, when positive, is the smallest inherited error a reset
	// may leave: the derived interval's half-width is clamped up to it.
	// This is NTP's minimum-dispersion hedge against the Figure 3 hazard
	// — a tight consistent-but-wrong interval (a neighbor drifting just
	// beyond its claimed bound) cannot force the server's error below
	// the floor, so small poisonings stay inside the reported interval.
	FloorError float64
}

// Name returns "IM".
func (IM) Name() string { return "IM" }

// Sync applies rule IM-2 over the reply set.
func (f IM) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	ci, ei := s.Read(t), s.ErrorAt(t)
	a, b := math.Inf(-1), math.Inf(1)
	if !f.ExcludeSelf {
		a, b = -ei, ei
	}
	used := 0
	for i, r := range replies {
		c, trail, lead := s.effective(r, ci)
		lo, hi := Offset(c, trail, lead, ci)
		if f.DropInconsistent && !Consistent(lo, hi, ei) {
			s.noteInconsistent()
			res.Inconsistent = append(res.Inconsistent, i)
			continue
		}
		a, b = Fold(a, b, lo, hi)
		used++
	}
	if used == 0 || b < a || math.IsInf(a, -1) {
		// Empty intersection: the time service is inconsistent (or there
		// was nothing to intersect). No reset.
		if b < a && len(res.Inconsistent) == 0 {
			s.noteInconsistent()
			res.Inconsistent = inconsistentIndices(len(replies))
		}
		return res
	}
	shift, eps := Midpoint(a, b, ci)
	if f.FloorError > eps {
		eps = f.FloorError
	}
	s.SetClock(t, ci+shift, eps)
	res.Reset = true
	res.Accepted = used
	return res
}

func inconsistentIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// LamportMax is the baseline of [Lamport 78]: the synchronization function
// is the maximum of the clocks, which preserves local monotonicity. The
// server adopts the largest consistent reply clock that exceeds its own;
// error bookkeeping follows the adopted server as in MM.
type LamportMax struct{}

// Name returns "max".
func (LamportMax) Name() string { return "max" }

// Sync adopts the maximum clock value among self and consistent replies.
func (LamportMax) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	cands := s.candidates(t, replies, &res)
	best := cands[0]
	for _, k := range cands[1:] {
		if k.c > best.c {
			best = k
		}
	}
	if !best.own {
		s.SetClock(t, best.c, best.err)
		res.Reset = true
		res.Accepted = 1
	}
	return res
}

// Median is the baseline of [Lamport 82]: the synchronization function is
// the median clock value of self and the consistent replies. The adopted
// error is the transit-charged error of the median element (the server's
// own error if self is the median).
type Median struct{}

// Name returns "median".
func (Median) Name() string { return "median" }

// Sync adopts the median clock value.
func (Median) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	cands := s.candidates(t, replies, &res)
	sort.Slice(cands, func(i, j int) bool { return cands[i].c < cands[j].c })
	med := cands[(len(cands)-1)/2]
	if med.own {
		return res
	}
	s.SetClock(t, med.c, med.err)
	res.Reset = true
	res.Accepted = 1
	return res
}

// Mean is the baseline mean-of-clocks function mentioned with [Lamport 82].
// The server sets its clock to the average of its own and every consistent
// reply clock; the inherited error is the average of the corresponding
// transit-charged errors (a heuristic: averaging has no principled
// worst-case bound, which is part of why the paper's interval formulation
// is interesting).
type Mean struct{}

// Name returns "mean".
func (Mean) Name() string { return "mean" }

// Sync adopts the mean clock value of self and consistent replies.
func (Mean) Sync(s *Server, t float64, replies []Reply) Result {
	var res Result
	cands := s.candidates(t, replies, &res)
	n := len(cands)
	if n == 1 {
		return res
	}
	sumC, sumE := cands[0].c, cands[0].err
	for _, k := range cands[1:] {
		sumC += k.c
		sumE += k.err
	}
	s.SetClock(t, sumC/float64(n), sumE/float64(n))
	res.Reset = true
	res.Accepted = n - 1
	return res
}

// cand is one clock value a baseline function may adopt: the server's own
// reading, or a consistent reply's clock with its transit-charged error.
type cand struct {
	c   float64
	err float64
	own bool
}

// candidates is the reply loop the baseline functions share. It returns
// the server's own reading followed, in reply order, by every reply
// consistent with the server's interval at t; an inconsistent reply is
// counted and listed in res instead (rule MM-2's "ignored").
func (s *Server) candidates(t float64, replies []Reply, res *Result) []cand {
	ci := s.Read(t)
	cands := []cand{{c: ci, err: s.ErrorAt(t), own: true}}
	for i, r := range replies {
		if !s.ConsistentWith(t, r) {
			s.noteInconsistent()
			res.Inconsistent = append(res.Inconsistent, i)
			continue
		}
		c, _, lead := s.effective(r, ci)
		cands = append(cands, cand{c: c, err: lead})
	}
	return cands
}
