package member

import (
	"cmp"
	"sort"
)

// Selection policy: each synchronization round a server polls the K
// live members with the smallest advertised maximum error — the
// paper's MM idea ("adopt the neighbor with smaller maximum error")
// lifted from reply processing to topology — plus one seeded-random
// exploration slot drawn from the members *not* currently preferred
// (suspects, evictees awaiting rejoin, and live members ranked below
// K). The exploration slot is what re-discovers a recovering server:
// its advertised error is huge right after a restart, so quality
// ranking alone would never poll it again, and without being polled it
// can never advertise a better bound.

// selectTargets returns the IDs to address from the roster's view: up to
// k live members ranked by advertised E (ties broken by ID), plus at
// most one exploration pick from the remaining known members. The owner
// itself and voluntarily-departed members are never selected. The
// result is in ranked order with the exploration pick last. explore and
// eligible are the caller's, as Protocol.GossipTargets documents them.
func selectTargets[ID cmp.Ordered](r *Roster[ID], k int, explore func(n int) int, eligible func(id ID) bool) []ID {
	ranked := make([]Entry[ID], 0, r.Len())
	var rest []ID
	for _, e := range r.Members() {
		if e.ID == r.self || e.Status == Left {
			continue
		}
		if eligible != nil && !eligible(e.ID) {
			continue
		}
		if e.Status == Alive {
			ranked = append(ranked, e)
		} else {
			rest = append(rest, e.ID)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].E < ranked[j].E {
			return true
		}
		if ranked[j].E < ranked[i].E {
			return false
		}
		return ranked[i].ID < ranked[j].ID
	})
	out := make([]ID, 0, k+1)
	for i := 0; i < len(ranked) && i < k; i++ {
		out = append(out, ranked[i].ID)
	}
	// Unpreferred pool: suspects and evictees first (rest), then live
	// members ranked below K.
	for i := k; i < len(ranked); i++ {
		rest = append(rest, ranked[i].ID)
	}
	if explore != nil && len(rest) > 0 {
		out = append(out, rest[explore(len(rest))])
	}
	return out
}
