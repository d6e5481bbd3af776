package member

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// DetectorConfig sizes the drift-aware failure detector.
//
// Every quantity is measured on the observer's local clock, which may
// run fast or slow by up to LocalDelta; the heartbeat sender paces its
// advertisements on its own clock, wrong by up to RemoteDelta. The
// detector's deadline must absorb both drifts plus one network delay
// bound, or a perfectly correct pair of servers could evict each other
// purely through the bookkeeping the paper's rule MM-1 already allows.
type DetectorConfig struct {
	// Period is the heartbeat interval, in the sender's clock seconds.
	Period float64
	// LocalDelta is the observer's own claimed drift bound (the paper's
	// delta_i): its clock accrues up to (1+LocalDelta) local seconds
	// per real second, so deadlines measured on it must be widened by
	// the same factor.
	LocalDelta float64
	// RemoteDelta bounds the sender's drift: its heartbeat period,
	// paced on its clock, stretches to at most Period/(1-RemoteDelta)
	// real seconds.
	RemoteDelta float64
	// Xi is the one-way network delay bound: consecutive heartbeats'
	// arrival spacing can stretch by one full delay bound (the previous
	// one arrived instantly, the next maximally late).
	Xi float64
}

// Validate rejects configurations whose deadline formula is meaningless.
// The dangerous case is RemoteDelta >= 1: the sender's heartbeat period
// Period/(1-RemoteDelta) then divides by zero or goes negative, and a
// silently computed SuspectAfter would be negative or infinite —
// immediately mass-evicting every member or never suspecting anyone,
// depending on sign. NaN drift or delay bounds and an infinite period
// are rejected for the same reason.
func (c DetectorConfig) Validate() error {
	if !(c.Period > 0) || math.IsInf(c.Period, 1) {
		return fmt.Errorf("member: heartbeat period %v not positive and finite", c.Period)
	}
	if math.IsNaN(c.LocalDelta) || math.IsNaN(c.RemoteDelta) ||
		c.LocalDelta < 0 || c.RemoteDelta < 0 || c.RemoteDelta >= 1 {
		return fmt.Errorf("member: drift bounds (local %v, remote %v) outside [0,1)",
			c.LocalDelta, c.RemoteDelta)
	}
	if math.IsNaN(c.Xi) || c.Xi < 0 {
		return fmt.Errorf("member: negative delay bound %v", c.Xi)
	}
	return nil
}

// SuspectAfter returns the local-clock silence, in seconds, after which
// a member is suspected:
//
//	(misses * Period/(1-RemoteDelta) + Xi) * (1+LocalDelta)
//
// Derivation: between two heartbeats the sender's clock advances
// Period, which is at most Period/(1-RemoteDelta) real seconds, and
// network jitter can separate consecutive arrivals by one extra delay
// bound — so up to misses*Period/(1-RemoteDelta) + Xi real seconds of
// silence are innocent. Over that whole real-time span the observer's
// clock accrues up to a factor (1+LocalDelta) more local seconds, so
// the Xi term is widened by the observer's drift too (dropping that
// factor would let a fast local clock falsely suspect a correct
// sender). A correct sender therefore shows fresh within this deadline
// with certainty — suspicion of a correct, connected member is
// impossible by construction, which is the property the package's
// tests assert at exactly the claimed drift bounds.
//
// A configuration Validate rejects yields +Inf: a degenerate deadline
// must fail safe (never suspect anyone) rather than return a negative or
// NaN span that would instantly evict every correct member. Callers that
// want the error instead of the clamp run Validate first, as NewProtocol
// does.
func (c DetectorConfig) SuspectAfter() float64 {
	if c.Validate() != nil {
		return math.Inf(1)
	}
	return (misses*c.Period/(1-c.RemoteDelta) + c.Xi) * (1 + c.LocalDelta)
}

// EvictAfter returns the local-clock silence after which a suspect is
// evicted: twice the suspicion deadline. A stopped server is thus
// evicted within a bounded, computable window — the detector's
// completeness bound, also property-tested.
func (c DetectorConfig) EvictAfter() float64 { return 2 * c.SuspectAfter() }

// verdict is one failure-detector decision.
type verdict[ID cmp.Ordered] struct {
	// ID is the member judged.
	ID ID
	// Status is Suspect or Evicted.
	Status Status
	// Silence is the local-clock seconds since the member was last
	// heard, at the moment of the verdict.
	Silence float64
}

// Detector tracks per-member freshness on the observer's local clock
// and turns silence into Suspect/Evicted verdicts under the
// drift-widened deadlines. It is deliberately separate from the
// Roster: the detector holds timing state, the roster holds membership
// state, and Protocol.Tick applies the verdicts to the roster.
type Detector[ID cmp.Ordered] struct {
	cfg   DetectorConfig
	heard map[ID]float64 // local-clock time of last direct freshness
	stage map[ID]Status  // last verdict issued (Alive when fresh)
}

// newDetector returns a detector with the given deadline configuration.
func newDetector[ID cmp.Ordered](cfg DetectorConfig) (*Detector[ID], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector[ID]{
		cfg:   cfg,
		heard: make(map[ID]float64),
		stage: make(map[ID]Status),
	}, nil
}

// observe records direct evidence of id's liveness at localNow (a
// heartbeat, a gossip message from it, or a protocol reply). Fresh
// evidence clears any standing suspicion.
func (d *Detector[ID]) observe(id ID, localNow float64) {
	d.heard[id] = localNow
	d.stage[id] = Alive
}

// forget drops id's timing state (after a voluntary departure or an
// applied eviction, so the next incarnation starts fresh).
func (d *Detector[ID]) forget(id ID) {
	delete(d.heard, id)
	delete(d.stage, id)
}

// check compares every tracked member's silence against the deadlines
// at local-clock time localNow and returns the members whose verdict
// escalated since the last check, in increasing ID order (deterministic
// for gossip and timelines). A member silent past SuspectAfter yields
// one Suspect verdict; past EvictAfter, one Evicted verdict. Verdicts
// are edge-triggered: a member already suspected is not re-reported
// until it escalates or is observed again.
func (d *Detector[ID]) check(localNow float64) []verdict[ID] {
	suspectAt := d.cfg.SuspectAfter()
	evictAt := d.cfg.EvictAfter()
	ids := make([]ID, 0, len(d.heard))
	for id := range d.heard {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []verdict[ID]
	for _, id := range ids {
		silence := localNow - d.heard[id]
		var want Status
		switch {
		case silence > evictAt:
			want = Evicted
		case silence > suspectAt:
			want = Suspect
		default:
			continue
		}
		if d.stage[id] >= want {
			continue
		}
		d.stage[id] = want
		out = append(out, verdict[ID]{ID: id, Status: want, Silence: silence})
	}
	return out
}
