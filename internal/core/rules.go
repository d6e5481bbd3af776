package core

// The paper's rules as arithmetic over float64 seconds. Every holder of
// the rules calls these: Server and the synchronization functions in this
// package, which Node runs for the simulated service and the udptime
// syncer alike, and scale.Engine over its flat per-node arrays. A change
// to a rule (say, a frequency discipline) is made here once.
//
// Two conditions hold for every function here. Its floating-point
// operations and their order are part of its contract: reordering one
// moves every seeded run (scale's TestGoldenFingerprints pins two). And
// it stays small enough to inline, so the scale engine pays no call per
// reply (go build -gcflags=-m ./internal/scale shows each "inlining call
// to core.X").

// AgedError is rule MM-1's maximum error: the inherited error eps plus
// deterioration delta per clock-second elapsed since the last reset,
//
//	E = eps + (C - r)*delta.
//
// A clock a fault moved behind its reset reference has elapsed < 0; the
// deterioration is clamped at zero, since error never shrinks by drift.
func AgedError(eps, elapsed, delta float64) float64 {
	if elapsed < 0 {
		elapsed = 0
	}
	return eps + elapsed*delta
}

// Charge is what a requester with drift bound delta must add to a reply's
// error e, given the round trip rtt it measured on its own clock (the
// paper's xi) and the local clock time age it has held the reply since
// arrival (clamped at zero):
//
//	trail = e + delta*age
//	lead  = e + (1+delta)*rtt + delta*age
//
// The responder read its clock at some point during the round trip, so
// the leading edge carries the whole of it, stretched by the requester's
// own drift over the flight: the transit charge of rule IM-2's transform
// and of MM-2's error adjustment. Both edges widen by delta*age while the
// reply waits to be applied. With age = 0 these are the paper's quantities.
func Charge(e, rtt, age, delta float64) (trail, lead float64) {
	if age < 0 {
		age = 0
	}
	drift := delta * age
	return e + drift, e + (1+delta)*rtt + drift
}

// Offset is rule IM-2's transform: the reply's clock c with its charged
// errors, as an interval of offsets from the requester's reading ci,
//
//	[lo, hi] = [c - trail - ci, c + lead - ci].
//
// With ci = 0 it is the reply's interval on the requester's timeline.
func Offset(c, trail, lead, ci float64) (lo, hi float64) {
	return c - trail - ci, c + lead - ci
}

// Consistent reports whether the offset interval [lo, hi] meets the
// requester's own [-ei, ei], the paper's |C_i - C_j| <= E_i + E_j after
// the transit charge. A reply that fails it proves one of the two servers
// incorrect, and rule MM-2 ignores it.
func Consistent(lo, hi, ei float64) bool {
	return lo <= ei && hi >= -ei
}

// Widen ages a running offset intersection [a, b] by dc seconds of local
// clock progress (clamped at zero): offsets keep their reference at the
// current reading, and each edge moves out by delta*dc. It is Charge's
// delta*age applied to the intersection instead of to each reply in it.
func Widen(a, b, dc, delta float64) (float64, float64) {
	if dc < 0 {
		dc = 0
	}
	return a - delta*dc, b + delta*dc
}

// Fold intersects [lo, hi] into the running intersection [a, b]. The
// result is empty, and the service inconsistent, when it has b < a.
func Fold(a, b, lo, hi float64) (float64, float64) {
	if lo > a {
		a = lo
	}
	if hi < b {
		b = hi
	}
	return a, b
}

// Midpoint is rule IM-2's adoption of a non-empty intersection [a, b]:
// the clock moves by shift = (a+b)/2 and inherits eps = (b-a)/2.
func Midpoint(a, b float64) (shift, eps float64) {
	return (a + b) / 2, (b - a) / 2
}

// CollectWindow is how long a round collects replies before rule IM-2
// adopts: the round-trip bound xi with a 5 % margin, so every reply, sent
// and answered within xi, is in before the round closes. service closes
// its rounds here, and so does scale.Engine.
func CollectWindow(xi float64) float64 {
	return xi * 1.05
}
