package member

import (
	"cmp"
	"sort"
)

// Change describes one roster transition produced by a merge, a local
// accusation, or the owner's own departure or rejoin, for timelines and
// metrics.
type Change[ID cmp.Ordered] struct {
	// ID is the member whose row changed.
	ID ID
	// From is the previous status (zero when the member was unknown).
	From Status
	// To is the new status.
	To Status
	// Gen is the generation the new observation carries.
	Gen uint64
	// Joined reports that the member was previously unknown.
	Joined bool
}

// Roster is one server's membership view: a set of entries merged under
// the Supersedes precedence, with deterministic sorted iteration. Only
// the owning Protocol mutates it; Protocol.Roster hands everyone else
// the read side (Get, Members, Self, AliveCount, Len).
//
// A Roster is not safe for concurrent use; the simulated substrate is
// single-threaded and the UDP substrate guards it with its own mutex.
type Roster[ID cmp.Ordered] struct {
	self    ID
	entries map[ID]Entry[ID]
	order   []ID // sorted cache of entry IDs, rebuilt on add/remove
}

// newRoster returns a roster whose only member is self, alive at
// generation gen with sequence zero.
func newRoster[ID cmp.Ordered](self ID, gen uint64, delta float64) *Roster[ID] {
	r := &Roster[ID]{
		self:    self,
		entries: make(map[ID]Entry[ID]),
	}
	r.entries[self] = Entry[ID]{ID: self, Gen: gen, Status: Alive, Delta: delta}
	r.rebuildOrder()
	return r
}

// Len returns the number of known members, including the owner and
// departed ones.
func (r *Roster[ID]) Len() int { return len(r.entries) }

// AliveCount returns how many known members are currently Alive.
func (r *Roster[ID]) AliveCount() int {
	n := 0
	for _, id := range r.order {
		if r.entries[id].Status == Alive {
			n++
		}
	}
	return n
}

// rebuildOrder refreshes the sorted iteration cache. Iterating the
// sorted cache — never the map — is what keeps every roster consumer
// (gossip digests, selection, timelines) byte-deterministic.
func (r *Roster[ID]) rebuildOrder() {
	ids := r.order[:0]
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r.order = ids
}

// Members returns every entry in increasing ID order.
func (r *Roster[ID]) Members() []Entry[ID] {
	out := make([]Entry[ID], 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.entries[id])
	}
	return out
}

// advertise bumps the owner's heartbeat sequence, refreshes its
// advertised <C, E> quality, and marks it Alive.
func (r *Roster[ID]) advertise(c, e float64) {
	s := r.entries[r.self]
	s.Seq++
	s.Status = Alive
	s.C, s.E = c, e
	r.entries[r.self] = s
}

// leave marks the owner as voluntarily departed at a fresh sequence and
// returns the transition. The departure supersedes any in-flight
// advertisement of the same generation.
func (r *Roster[ID]) leave() Change[ID] {
	s := r.entries[r.self]
	from := s.Status
	s.Seq++
	s.Status = Left
	r.entries[r.self] = s
	return Change[ID]{ID: r.self, From: from, To: Left, Gen: s.Gen}
}

// rejoin starts the owner's next incarnation and returns the
// transition: the generation bumps (so the fresh advertisement
// supersedes every observation from the previous life, including an
// eviction), the sequence resets, and the advertised quality is
// refreshed.
func (r *Roster[ID]) rejoin(c, e float64) Change[ID] {
	s := r.entries[r.self]
	from := s.Status
	s.Gen++
	s.Seq = 0
	s.Status = Alive
	s.C, s.E = c, e
	r.entries[r.self] = s
	return Change[ID]{ID: r.self, From: from, To: Alive, Gen: s.Gen}
}

// upsert merges one observed entry under the Supersedes precedence.
// It reports the transition (valid only when changed is true). Stale
// observations — including stale observations about the owner itself —
// are ignored; a fresher claim about the owner (e.g. an eviction
// accusation that won) is adopted like any other entry, and
// Protocol.Merge answers it with a rejoin.
func (r *Roster[ID]) upsert(e Entry[ID]) (ch Change[ID], changed bool) {
	old, known := r.entries[e.ID]
	if known && !e.Supersedes(old) {
		return Change[ID]{}, false
	}
	r.entries[e.ID] = e
	if !known {
		r.rebuildOrder()
	}
	return Change[ID]{ID: e.ID, From: old.Status, To: e.Status, Gen: e.Gen, Joined: !known}, true
}

// accuse records a local failure-detector verdict about id at the
// member's currently-known (Gen, Seq): Suspect or Evicted. The
// accusation loses to any newer advertisement, so a member that was
// merely slow reinstates itself the moment it is heard again.
func (r *Roster[ID]) accuse(id ID, verdict Status) (ch Change[ID], changed bool) {
	old, known := r.entries[id]
	if !known || id == r.self {
		return Change[ID]{}, false
	}
	if verdict <= old.Status || old.Status == Left {
		// Already at or past the verdict, or voluntarily gone.
		return Change[ID]{}, false
	}
	e := old
	e.Status = verdict
	r.entries[id] = e
	return Change[ID]{ID: id, From: old.Status, To: verdict, Gen: e.Gen}, true
}

// digest appends up to max entries of the roster to dst for an outgoing
// gossip message: the owner's entry first, then the remaining members
// in a rotation that advances with the owner's heartbeat sequence, so
// successive digests cover the whole roster even when max is small.
func (r *Roster[ID]) digest(dst []Entry[ID], max int) []Entry[ID] {
	if max <= 0 {
		return dst
	}
	self := r.entries[r.self]
	dst = append(dst, self)
	if len(r.order) <= 1 || max == 1 {
		return dst
	}
	// Rotate the start point by the heartbeat sequence.
	start := int(self.Seq % uint64(len(r.order)))
	for k := 0; k < len(r.order) && len(dst) < max; k++ {
		id := r.order[(start+k)%len(r.order)]
		if id == r.self {
			continue
		}
		dst = append(dst, r.entries[id])
	}
	return dst
}
