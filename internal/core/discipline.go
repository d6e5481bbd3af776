package core

// This file is §5's rate discipline as one step: a node that adopted a
// reading bounds its own oscillator's drift from that reading, the
// anchor (an earlier one of its own) and the raw ticks between them
// (DriftInterval), steers its clock to the bound's centre and ages its
// error at the residual (Steer). Node runs it after every reset of a
// function the caller pairs it with, and scale.Engine at every IM adopt
// over its arrays; DESIGN.md §3, "Rate discipline", holds the induction.

// Anchor is the reading a node's rate discipline measures from: its
// clock reading C with error E, taken at instant T of the clock's ticks
// (clock.Drifting's Ticks measures from it). The zero Anchor is none.
type Anchor struct {
	T, C, E float64
}

// Anchored reports whether the anchor holds a reading. T is the instant
// of an adopt, and no simulation closes a round at time zero but one
// with a zero collect window, whose anchor is then taken at its next
// adopt.
func (an Anchor) Anchored() bool { return an.T > 0 }

// Rate is the rate discipline's state after a step: the centre the clock
// steers to and the rate at which the node's error ages.
type Rate struct {
	// Centre is the drift the clock steers out: it runs at its
	// oscillator's ticks over 1+Centre. Meaningful only when Steered.
	Centre float64
	// Age is the aging rate per local second: the claimed delta
	// unsteered, Steer's residual steered.
	Age float64
	// Steered reports that the clock runs at Centre.
	Steered bool
}

// RateRule is the rate discipline a Node runs: Step at every reset, and
// Recover at a Section 3 recovery's adopt. Slew is the rule; the chaos
// harness plants broken ones.
type RateRule interface {
	// Step takes the anchor, the reading <c, e> just adopted at instant
	// t, the oscillator's ticks since the anchor and the claimed bound
	// delta, and returns the rate to run at, the next anchor, and
	// whether the step fell back: its drift bound missed [-delta, delta],
	// and the node runs unsteered at delta, re-anchored.
	Step(an Anchor, t, c, e, ticks, delta float64) (r Rate, next Anchor, fallback bool)
	// Recover returns what is left of the anchor after a recovery's
	// adopt.
	Recover(an Anchor) Anchor
}

// Slew is §5's rate discipline. Its float operations and their order are
// part of its contract, as the rules' are (rules.go): scale's im golden
// pins them.
type Slew struct{}

// Step anchors at the first adopt, unsteered at delta. At every later
// one it bounds the drift from the anchor (DriftInterval), clipped to
// [-delta, delta], and steers to the bound's centre at Steer's residual,
// keeping the anchor. A bound that misses the clip, or admits no
// positive rate, contradicts the premise |d| <= delta: the node runs
// unsteered at delta and re-anchors here.
func (Slew) Step(an Anchor, t, c, e, ticks, delta float64) (Rate, Anchor, bool) {
	here := Anchor{T: t, C: c, E: e}
	if !an.Anchored() {
		return Rate{Age: delta}, here, false
	}
	lo, hi := DriftInterval(an.C, an.E, c, e, ticks)
	lo, hi = max(lo, -delta), min(hi, delta)
	if lo <= hi && lo > -1 {
		centre, age := Steer(lo, hi)
		return Rate{Centre: centre, Age: age, Steered: true}, an, false
	}
	return Rate{Age: delta}, here, true
}

// Recover drops the anchor: the node adopted a stranger's reading
// because its own interval was in doubt, and so was every reading it
// anchored on.
func (Slew) Recover(Anchor) Anchor { return Anchor{} }
