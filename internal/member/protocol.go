package member

import (
	"cmp"
	"math"
)

// The protocol's sizes. Neither substrate ever chose another value, so
// they are not configuration.
const (
	// digestMax caps the roster entries per gossip message (well under
	// wire.MaxAdvertiseEntries).
	digestMax = 8
	// fanout is how many quality-ranked members a gossip tick addresses.
	// The exploration slot is always added on top.
	fanout = 2
	// pollK is how many quality-ranked live members a sync round polls.
	// The exploration slot is always added on top.
	pollK = 3
	// misses is how many consecutive heartbeats may go missing before
	// the detector suspects a member.
	misses = 3
)

// Protocol is one member's side of the membership protocol: its roster,
// its failure detector, and the rules that string them together — what
// a gossip tick does, what counts as evidence of liveness, how a digest
// is merged, when the owner must rejoin, and whom to gossip to and to
// poll. A substrate supplies only what is its own: a local clock, the
// owner's <C, E> reading, exploration draws, and the transport. Like
// the rest of the package a Protocol reads no clock and draws no
// randomness, and it is not safe for concurrent use.
type Protocol[ID cmp.Ordered] struct {
	cfg       DetectorConfig
	roster    *Roster[ID]
	det       *Detector[ID]
	evictions uint64
	changes   []Change[ID] // Tick's and Merge's result, reused by the next call
}

// NewProtocol returns the protocol state of member self, alive at
// incarnation gen, its first advertisement <c, e> already made.
// cfg.LocalDelta is also the drift bound the owner advertises about
// itself. It fails on a configuration DetectorConfig.Validate rejects.
func NewProtocol[ID cmp.Ordered](self ID, gen uint64, cfg DetectorConfig, c, e float64) (*Protocol[ID], error) {
	det, err := newDetector[ID](cfg)
	if err != nil {
		return nil, err
	}
	p := &Protocol[ID]{cfg: cfg, roster: newRoster(self, gen, cfg.LocalDelta), det: det}
	p.roster.advertise(c, e)
	return p, nil
}

// Roster returns the owner's membership view, for reading.
func (p *Protocol[ID]) Roster() *Roster[ID] { return p.roster }

// Evictions returns how many members this owner's own detector has
// evicted: verdicts it reached and applied, not evictions it merely
// learned through gossip.
func (p *Protocol[ID]) Evictions() uint64 { return p.evictions }

// Seed adds a bootstrap member: gossip targets come from the roster, so
// a roster holding only its owner would never gossip. The seed joins as
// a generation-zero entry of unknown (infinite) quality, which its
// first real advertisement supersedes, and it is not detector-tracked
// until actually heard, so a dead seed is never falsely "evicted".
func (p *Protocol[ID]) Seed(id ID) {
	p.roster.upsert(Entry[ID]{ID: id, Status: Alive, E: math.Inf(1)})
}

// Tick is the bookkeeping of one gossip round at local-clock time
// local: refresh the owner's advertisement with its reading <c, e>,
// then turn silence into accusations, in the detector's sorted order.
// An eviction verdict also drops the member's timing state: applied, so
// that its next incarnation starts fresh; refused (the roster never
// admitted the sender, or already records it Left), so that it does not
// stay tracked forever. It returns the roster transitions, in a slice
// the next Tick or Merge reuses; the caller then sends Digest to
// GossipTargets.
func (p *Protocol[ID]) Tick(local, c, e float64) []Change[ID] {
	p.roster.advertise(c, e)
	p.changes = p.changes[:0]
	for _, v := range p.det.check(local) {
		if v.Status == Evicted {
			p.det.forget(v.ID)
		}
		if ch, changed := p.roster.accuse(v.ID, v.Status); changed {
			p.changes = append(p.changes, ch)
			if v.Status == Evicted {
				p.evictions++
			}
		}
	}
	return p.changes
}

// Heard records direct evidence that id is serving, at local-clock time
// local: the transport delivered a message from it.
func (p *Protocol[ID]) Heard(id ID, local float64) { p.det.observe(id, local) }

// Merge folds in one digest that the transport delivered from member
// from at local-clock time local. The sender — whoever the transport
// says it is, not whoever the first row claims — is direct evidence;
// any entry strictly fresher than what the roster knew is indirect
// evidence that its member advertised recently, which is what keeps
// sparse topologies (where most members are never heard directly) from
// evicting live servers. A fresher claim that the owner itself is
// Suspect or Evicted is adopted and at once answered by a rejoin at the
// next incarnation, advertising reading(), which is not called
// otherwise. It returns the transitions in entry order, the adopted
// claim before the rejoin, in a slice the next Tick or Merge reuses.
func (p *Protocol[ID]) Merge(from ID, entries []Entry[ID], local float64, reading func() (c, e float64)) []Change[ID] {
	p.Heard(from, local)
	p.changes = p.changes[:0]
	for _, e := range entries {
		ch, changed := p.roster.upsert(e)
		if !changed {
			continue
		}
		p.changes = append(p.changes, ch)
		if e.ID == p.roster.self {
			if ch.To == Suspect || ch.To == Evicted {
				p.changes = append(p.changes, p.Rejoin(reading()))
			}
			continue
		}
		switch ch.To {
		case Alive:
			p.det.observe(e.ID, local)
		case Left, Evicted:
			p.det.forget(e.ID)
		}
	}
	return p.changes
}

// GossipTargets returns whom to send this round's digest to: the Fanout
// live members with the smallest advertised error, plus the exploration
// slot. explore, when non-nil, supplies the exploration draw: called
// with the number of unpreferred candidates n > 0, it must return an
// index in [0, n). Inject a seeded rand.IntN for determinism; nil
// disables exploration. eligible, when non-nil, filters candidates
// before ranking: only members it accepts are considered at all. The
// simulated substrate injects link reachability here (selecting an
// unreachable member wastes both the slot and the exploration draw);
// nil accepts every member.
func (p *Protocol[ID]) GossipTargets(explore func(n int) int, eligible func(id ID) bool) []ID {
	return selectTargets(p.roster, fanout, explore, eligible)
}

// PollTargets returns whom a sync round should poll: the pollK live members
// with the smallest advertised error, plus the exploration slot, with
// explore and eligible as for GossipTargets.
func (p *Protocol[ID]) PollTargets(explore func(n int) int, eligible func(id ID) bool) []ID {
	return selectTargets(p.roster, pollK, explore, eligible)
}

// Digest appends the next outgoing gossip message to dst: up to
// digestMax entries, the owner's first (allocation-free when dst has
// capacity).
func (p *Protocol[ID]) Digest(dst []Entry[ID]) []Entry[ID] {
	return p.roster.digest(dst, digestMax)
}

// Leave records the owner's voluntary departure; the caller announces
// it with one last Digest and goes silent.
func (p *Protocol[ID]) Leave() Change[ID] { return p.roster.leave() }

// Rejoin starts the owner's next incarnation (after a departure, a
// restart, or an accusation Merge adopted), advertising <c, e>.
func (p *Protocol[ID]) Rejoin(c, e float64) Change[ID] { return p.roster.rejoin(c, e) }
