package service

import (
	"math"

	"disttime/internal/member"
)

// This file is the chaos tier's adversary seam: the hooks that turn one
// server Byzantine. A TwoFaced server answers each peer's time request
// from an independently skewed clock register; an Equivocating server
// advertises conflicting <C, E> pairs for the same incarnation to
// different gossip targets. In both cases the server's own bookkeeping
// stays honest — only what it tells others lies — which is what makes
// these faults strictly stronger than the Figure 3 falsetickers: no
// single observer can detect the lie from its own evidence, because
// every individual answer is plausible.

// SetTwoFaced makes server i answer time requests two-facedly: the reply
// to destination j carries C + offsets[j] instead of C. Offsets shorter
// than the service are treated as zero-padded; a nil or empty slice (or
// ClearTwoFaced) restores honesty. The server's own interval, its sync
// rounds, and its gossip stay honest — only its outgoing time replies
// lie, and they lie per destination.
func (svc *Service) SetTwoFaced(i int, offsets []float64) {
	if i < 0 || i >= len(svc.Nodes) {
		return
	}
	if len(offsets) == 0 {
		svc.Nodes[i].twoFaced = nil
		return
	}
	svc.Nodes[i].twoFaced = offsets
}

// ClearTwoFaced restores server i's replies to honesty.
func (svc *Service) ClearTwoFaced(i int) { svc.SetTwoFaced(i, nil) }

// SetEquivocate makes server i equivocate in gossip: the digest pushed
// to destination j advertises the owner's entry with clock C +
// offsets[j] and an error bound of |offsets[j]| — the same generation
// and sequence number carrying conflicting, confidently-narrow <C, E>
// claims to different neighbors. Zero offsets leave that destination's
// digest honest; ClearEquivocate (or an empty slice) restores honesty
// everywhere. Time replies are unaffected: equivocation attacks the
// quality-ranked selection (a confidently-narrow lie attracts pollers),
// not the interval algebra itself.
func (svc *Service) SetEquivocate(i int, offsets []float64) {
	if i < 0 || i >= len(svc.Nodes) {
		return
	}
	if len(offsets) == 0 {
		svc.Nodes[i].equivocate = nil
		return
	}
	svc.Nodes[i].equivocate = offsets
}

// ClearEquivocate restores server i's gossip to honesty.
func (svc *Service) ClearEquivocate(i int) { svc.SetEquivocate(i, nil) }

// equivocateEntry perturbs node n's own roster entry for a digest bound
// to target id, when equivocation is installed. entries[0] is the
// owner's entry (Roster.Digest puts self first).
func (n *Node) equivocateEntry(entries []member.Entry[int], id int) {
	if n.equivocate == nil || id < 0 || id >= len(n.equivocate) || len(entries) == 0 {
		return
	}
	off := n.equivocate[id]
	//lint:ignore floateq zero is the codec's exact "honest to this peer" sentinel, never computed
	if off == 0 {
		return
	}
	self := entries[0]
	if self.ID != n.Server.ID() {
		return
	}
	self.C += off
	self.E = math.Abs(off)
	entries[0] = self
}
