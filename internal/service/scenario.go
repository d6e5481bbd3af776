package service

import (
	"disttime/internal/core"
	"disttime/internal/member"
)

// This file provides scenario control: crashing and restarting servers,
// and observation hooks on synchronization passes. The hooks let the
// chaos monitor and the experiments record when resets and recoveries
// actually happen without polling.

// AddSyncDetail registers an observer invoked after every
// synchronization pass with the pass's record. It chains fn after any
// observer already installed, so independent consumers (the chaos
// harness's invariant monitor and a metrics sink, say) share the one
// seam. Observers run in installation order.
func (svc *Service) AddSyncDetail(fn func(core.Pass)) {
	prev := svc.onSync
	if prev == nil {
		svc.onSync = fn
		return
	}
	svc.onSync = func(p core.Pass) {
		prev(p)
		fn(p)
	}
}

// Crash takes server i off the network: it stops answering requests,
// abandons any in-flight collection, and halts its periodic
// synchronization. The server's clock keeps running (the hardware
// oscillator does not care about the host), so rule MM-1's error
// bookkeeping remains valid across the outage. Crashing a crashed server
// is a no-op.
func (svc *Service) Crash(i int) {
	n := svc.Nodes[i]
	if n.crashed {
		return
	}
	n.crashed = true
	n.silence()
}

// silence takes node n off the network, for Crash and Leave: it abandons
// any in-flight collection, so that rounds up to here die with it, halts
// its periodic synchronization and gossip, and stops answering requests.
func (n *Node) silence() {
	n.collect = nil
	n.crashSeq = n.reqSeq
	if n.stopSync != nil {
		n.stopSync()
		n.stopSync = nil
	}
	if n.stopGossip != nil {
		n.stopGossip()
		n.stopGossip = nil
	}
	n.svc.Net.SetHandler(n.NetID, nil)
}

// revive puts node n back on the network, for Restart and Rejoin: it
// answers requests again, resumes gossip, resumes periodic rounds one
// full period from now if its spec synchronizes and they are halted, and
// with membership then announces itself.
func (n *Node) revive() {
	svc := n.svc
	svc.Net.SetHandler(n.NetID, n.handle)
	n.resumeMembership()
	if period := n.Spec.SyncEvery; period > 0 && n.stopSync == nil {
		n.stopSync = svc.Sim.Every(period, n.startRound)
	}
	if n.member != nil {
		n.pushDigest()
	}
}

// Restart brings a crashed server back: it answers requests again and,
// if its spec synchronizes, resumes periodic rounds one full period from
// now. Restarting a running server is a no-op.
func (svc *Service) Restart(i int) {
	n := svc.Nodes[i]
	if !n.crashed {
		return
	}
	n.crashed = false
	if n.departed {
		return // still voluntarily departed; only Rejoin revives it
	}
	if n.member != nil {
		// A restart is a new incarnation: the fresh advertisement must
		// supersede whatever the survivors recorded about the old life
		// (typically an eviction, which is what the event reports: the
		// owner's own roster slept through it).
		r := n.Server.Reading(svc.Sim.Now())
		ch := n.member.Rejoin(r.C, r.E)
		ch.From = member.Evicted
		n.emitMember(svc.Sim.Now(), ch)
	}
	// A restart arms a fresh ticker even when one runs: a ticker armed
	// during the outage (by a first phase that fell in it, or by a
	// Rejoin) is dropped here unstopped and keeps ticking beside the new
	// one. The seeded chaos outputs are pinned with that behaviour.
	n.stopSync = nil
	n.revive()
}

// Crashed reports whether server i is currently crashed.
func (svc *Service) Crashed(i int) bool { return svc.Nodes[i].crashed }
