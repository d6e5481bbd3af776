// Package txn runs an externally-consistent transaction workload on the
// simulated time service: clients on distinct servers start
// transactions, stamp them with hybrid logical clock timestamps drawn
// from the server's <C, E> interval (internal/hlc), and commit only
// after a TrueTime-style commit-wait — the Waiter holds the transaction
// until the server's earliest possible reading C − E has passed the
// stamped wall, so while the clock is contained (Theorems 1/5), true
// time at commit is strictly past the stamp.
//
// That wait is what buys external consistency: if transaction A
// completes in real time before transaction B starts, then at B's start
// true time exceeds A's stamp, and B's own stamp — the latest bound
// C + E of a contained clock, which is at least true time — must exceed
// it too. The workload checks exactly this ordering online: each commit
// is compared against the largest timestamp committed before the
// transaction began, with a Trusted gate so the check only asserts while
// the involved servers' clocks are believed contained (the chaos
// monitor wires its taint and containment state here). The planted
// BuggyCommitWait skips the wait, and the chaos tier proves the check
// has teeth by catching it and shrinking the triggering campaign.
package txn

import (
	"fmt"

	"disttime/internal/hlc"
	"disttime/internal/service"
	"disttime/internal/sim"
)

// Waiter decides when a stamped transaction may commit. Implementations
// see the committing server's current reading <C, E> in seconds and the
// transaction's timestamp.
type Waiter interface {
	// Name identifies the policy in logs and reproducers.
	Name() string
	// Ready reports whether a transaction stamped ts may commit now.
	Ready(c, e float64, ts hlc.Timestamp) bool
}

// CommitWait is the correct policy: commit once the clock's earliest
// possible reading C − E is strictly past the stamped wall. Under
// containment C − E never exceeds true time, so returning true implies
// true time has passed the stamp.
type CommitWait struct{}

// Name implements Waiter.
func (CommitWait) Name() string { return "commit-wait" }

// Ready implements Waiter.
func (CommitWait) Ready(c, e float64, ts hlc.Timestamp) bool {
	return c-e > ts.WallSeconds()
}

// BuggyCommitWait is a planted bug: it skips the wait entirely and
// commits the moment the transaction is stamped. The stamp C + E of a
// skewed-but-contained clock can run ahead of true time by up to 2E, so
// a transaction on a fast server commits carrying a timestamp that a
// later transaction on a slow server undercuts — an external-consistency
// violation the monitor must catch. (The equally classic variant that
// waits on C instead of C − E fails the same way, just less often: it
// under-waits by exactly E.)
type BuggyCommitWait struct{}

// Name implements Waiter.
func (BuggyCommitWait) Name() string { return "buggy-commit-wait" }

// Ready implements Waiter.
func (BuggyCommitWait) Ready(float64, float64, hlc.Timestamp) bool { return true }

// Txn is one committed transaction.
type Txn struct {
	// Client is the client index; client k runs on server k.
	Client int
	// Seq is the client's transaction sequence number, from zero.
	Seq int
	// Start and Commit are the virtual times the transaction began and
	// committed.
	Start, Commit float64
	// TS is the transaction's hybrid logical clock timestamp.
	TS hlc.Timestamp
}

// Violation is one external-consistency breach: a transaction committed
// with a timestamp not exceeding one that was already committed before
// this transaction began.
type Violation struct {
	// T is the virtual time of the violating commit.
	T float64
	// Client is the violating client (== its server index).
	Client int
	// Detail describes the breach.
	Detail string
}

// Config configures the workload.
type Config struct {
	// Clients is the number of clients; client k issues transactions on
	// server k, so it must not exceed the service's server count.
	Clients int
	// Rate is each client's mean transaction rate in transactions per
	// virtual second (closed loop: the think gap between a commit and the
	// next start is exponential with mean 1/Rate). Defaults to 1.
	Rate float64
	// Waiter is the commit policy; defaults to CommitWait.
	Waiter Waiter
	// Trusted gates the external-consistency check: a commit is asserted
	// only when Trusted reports true for both involved servers at check
	// time. Nil trusts everyone — correct while no clock faults are
	// injected.
	Trusted func(node int) bool
	// OnCommit observes every committed transaction (timelines, tests).
	OnCommit func(Txn)
	// OnViolation observes every external-consistency breach; violations
	// are counted regardless.
	OnViolation func(Violation)
}

// Workload is an attached transaction workload. Drive the service's
// simulator as usual; the workload's events interleave with the
// protocol's.
type Workload struct {
	svc *service.Service
	cfg Config

	// Commits and Violations count committed transactions and
	// external-consistency breaches across all clients.
	Commits    int
	Violations int

	// maxTS is the largest committed timestamp so far and maxNode the
	// server that committed it — the running frontier the checker
	// compares new commits against.
	maxTS   hlc.Timestamp
	maxNode int

	clients []*client
	// start and check are the kinds of a client's transaction start and
	// commit-wait re-check, tagged with the client's index.
	start, check sim.Kind
}

// client is one client's reusable transaction state; a single struct
// per client cycles through every transaction, its events tagged with
// its index.
type client struct {
	w     *Workload
	idx   int
	seq   int
	slope float64 // conservative d(C-E)/dt for re-check pacing

	start    float64
	ts       hlc.Timestamp
	snapTS   hlc.Timestamp // commit frontier observed at start
	snapNode int
	snapSet  bool
}

// retryDelay paces polls that wait out a crash, and floors re-check
// steps so a commit-wait converges even when a faulty clock barely
// advances its earliest bound.
const retryDelay = 1e-3

// Attach validates cfg and schedules the workload's clients on svc. Each
// client's first transaction starts its own think gap after now, so a
// later start is a later Attach. Every random draw comes from the
// service's simulator, so runs are deterministic in (service config,
// workload config).
func Attach(svc *service.Service, cfg Config) (*Workload, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("txn: %d clients", cfg.Clients)
	}
	if cfg.Clients > len(svc.Nodes) {
		return nil, fmt.Errorf("txn: %d clients for %d servers", cfg.Clients, len(svc.Nodes))
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("txn: negative rate %v", cfg.Rate)
	}
	if !(cfg.Rate > 0) { // zero (or NaN): take the default
		cfg.Rate = 1
	}
	if cfg.Waiter == nil {
		cfg.Waiter = CommitWait{}
	}
	w := &Workload{svc: svc, cfg: cfg, maxNode: -1}
	w.start = svc.Sim.Register(func(i, _ uint32) bool { w.clients[i].startTxn(); return true })
	w.check = svc.Sim.Register(func(i, _ uint32) bool { w.clients[i].tryCommit(); return true })
	for k := 0; k < cfg.Clients; k++ {
		// The slope under-estimates how fast C - E advances: C gains at
		// least (1 - delta) per true second while E grows at most
		// delta(1 + delta), so re-check sleeps never overshoot the wait.
		// (A steered clock's first steps age at delta/(1-delta), a hair
		// faster; a re-check that comes that much early only re-checks.)
		delta := svc.Nodes[k].Spec.Delta
		slope := 1 - 2*delta - delta*delta
		if slope < 0.5 {
			slope = 0.5
		}
		c := &client{w: w, idx: k, slope: slope}
		w.clients = append(w.clients, c)
		gap := svc.Sim.Rand().ExpFloat64() / cfg.Rate
		svc.Sim.After(gap, w.start, uint32(k), 0)
	}
	return w, nil
}

// MaxCommitted returns the largest committed timestamp and the server
// that committed it (-1 before the first commit).
func (w *Workload) MaxCommitted() (hlc.Timestamp, int) { return w.maxTS, w.maxNode }

func (c *client) startTxn() {
	w := c.w
	now := w.svc.Sim.Now()
	if w.svc.Crashed(c.idx) {
		// A client cannot start a transaction on a crashed server; poll
		// for the restart.
		w.svc.Sim.After(retryDelay, w.start, uint32(c.idx), 0)
		return
	}
	c.start = now
	c.ts = w.svc.Nodes[c.idx].HLCNow(now)
	c.snapTS, c.snapNode = w.maxTS, w.maxNode
	c.snapSet = w.maxNode >= 0
	c.tryCommit()
}

func (c *client) tryCommit() {
	w := c.w
	now := w.svc.Sim.Now()
	if w.svc.Crashed(c.idx) {
		// The server died mid-wait; the transaction commits after the
		// restart, once the commit-wait condition genuinely holds.
		w.svc.Sim.After(retryDelay, w.check, uint32(c.idx), 0)
		return
	}
	r := w.svc.Nodes[c.idx].Server.Reading(now)
	if !w.cfg.Waiter.Ready(r.C, r.E, c.ts) {
		// Sleep the remaining distance at the conservative slope, then
		// re-check: a reset may have moved C or widened E meanwhile.
		need := c.ts.WallSeconds() - (r.C - r.E)
		dt := need / c.slope
		if dt < retryDelay {
			dt = retryDelay
		}
		w.svc.Sim.After(dt, w.check, uint32(c.idx), 0)
		return
	}
	c.commit(now)
}

func (c *client) commit(now float64) {
	w := c.w
	t := Txn{Client: c.idx, Seq: c.seq, Start: c.start, Commit: now, TS: c.ts}
	c.seq++
	w.Commits++
	// External consistency: every transaction committed before this one
	// began must carry a smaller timestamp. The frontier snapshot taken
	// at start is the largest such timestamp; trust-gate both servers so
	// faulty clocks (whose containment the theorems no longer promise)
	// cannot raise false alarms.
	if c.snapSet && !c.snapTS.Before(c.ts) &&
		(w.cfg.Trusted == nil || (w.cfg.Trusted(c.snapNode) && w.cfg.Trusted(c.idx))) {
		w.Violations++
		if w.cfg.OnViolation != nil {
			w.cfg.OnViolation(Violation{
				T:      now,
				Client: c.idx,
				Detail: fmt.Sprintf("txn %d/%d stamped %v, but %v committed on server %d before its start t=%.3f",
					c.idx, t.Seq, c.ts, c.snapTS, c.snapNode, c.start),
			})
		}
	}
	if w.maxTS.Before(c.ts) {
		w.maxTS, w.maxNode = c.ts, c.idx
	}
	if w.cfg.OnCommit != nil {
		w.cfg.OnCommit(t)
	}
	gap := w.svc.Sim.Rand().ExpFloat64() / w.cfg.Rate
	w.svc.Sim.After(gap, w.start, uint32(c.idx), 0)
}
