// Package member is the dynamic-membership subsystem of the time
// service: a roster of known servers with join/leave/evict epochs, a
// drift-aware failure detector, anti-entropy gossip of roster entries
// carrying each server's advertised <C, E> quality, a peer-selection
// policy that ranks live servers by advertised maximum error, and
// Protocol, the per-member driver that strings them together and alone
// mutates a roster or feeds a detector.
//
// The paper's service ran on the Xerox Research Internet — hundreds of
// time servers that crash, restart, and move — yet its theorems are
// stated over a fixed set. This package supplies the topology-level
// counterpart of the paper's core selection idea: algorithm MM adopts
// the neighbor with the smaller maximum error, so a server should also
// *choose which neighbors to poll* by advertised error bound rather
// than by a hard-coded roster. Dynamic-topology synchronization is the
// regime of Kuhn et al. (optimal gradient clock synchronization in
// dynamic networks); rejoin-after-fault stabilization follows the
// self-stabilizing treatments in PAPERS.md.
//
// The package is pure and deterministic: it never reads the wall clock
// (callers feed local-clock timestamps in seconds), never draws from a
// shared random generator (exploration indices come from injected
// sources), and iterates rosters in sorted ID order — so the simulated
// substrate keeps its byte-determinism guarantee and the real UDP
// substrate runs the identical protocol, each holding one Protocol per
// member.
package member

import (
	"cmp"
	"fmt"
)

// Status is a member's lifecycle state in a roster.
type Status uint8

// The membership states, ordered by precedence: when two observations
// of the same member carry the same generation and sequence, the higher
// status wins the merge (an accusation beats the advertisement it was
// based on; a voluntary departure beats an accusation it raced with).
const (
	// Alive is a member believed to be serving and heartbeating.
	Alive Status = iota + 1
	// Suspect is a member whose heartbeats have gone quiet for longer
	// than the drift-widened deadline but not yet the eviction bound.
	Suspect
	// Left is a member that announced a voluntary departure.
	Left
	// Evicted is a member removed by the failure detector: silent for
	// longer than the eviction bound.
	Evicted
)

// statusNames maps states to their timeline tokens.
var statusNames = [...]string{"none", "alive", "suspect", "left", "evicted"}

// String returns the status token used in membership timelines.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Entry is one roster row: everything a server advertises about itself
// (or an observer records about it) in gossip.
type Entry[ID cmp.Ordered] struct {
	// ID identifies the member: a server index in the simulated
	// substrate, a UDP address in the real one.
	ID ID
	// Gen is the member's incarnation: it bumps on every (re)join, so a
	// restarted server's fresh advertisement supersedes any stale state
	// — including its own eviction — left from the previous life.
	Gen uint64
	// Seq is the within-generation heartbeat sequence, bumped on every
	// self-advertisement. A newer Seq at the same Gen supersedes older
	// observations, which is how a falsely-suspected server reinstates
	// itself simply by being heard again.
	Seq uint64
	// Status is the lifecycle state as of (Gen, Seq).
	Status Status
	// C and E are the member's advertised reading — the <C, E> pair of
	// rule MM-1 at the moment of the advertisement. Selection ranks
	// live members by E: the paper's "neighbor with smaller maximum
	// error", applied to topology.
	C float64
	E float64
	// Delta is the member's claimed drift bound, advertised so
	// observers can widen heartbeat deadlines for this member's clock
	// as well as their own.
	Delta float64
}

// Supersedes reports whether observation a carries strictly newer
// information about the same member than observation b: a later
// generation always wins; within a generation a later sequence wins;
// at the same (Gen, Seq) the higher-precedence status wins. The
// relation is a strict partial order, so merging is commutative and
// idempotent — gossip converges regardless of delivery order.
func (a Entry[ID]) Supersedes(b Entry[ID]) bool {
	if a.Gen != b.Gen {
		return a.Gen > b.Gen
	}
	if a.Seq != b.Seq {
		return a.Seq > b.Seq
	}
	return a.Status > b.Status
}
