// Package shard is the repository's one discrete-event kernel: the only
// code that orders pending events and advances virtual time. With many
// shards it runs the planet-scale scenarios, the multi-network "internet"
// of the paper's Xerox setting grown to 10^5 servers and beyond; with one
// shard and one node it is what internal/sim's closure API stands on,
// under every experiment, the chaos harness and the transaction tier.
//
// Nodes are partitioned across N shards. Each shard owns a pending set
// of value-typed events (plain values in backing arrays, so there is
// nothing to pool and nothing to box) and advances in lockstep windows
// bounded by the minimum cross-shard message delay (the
// conservative-PDES lookahead). Cross-shard deliveries buffer in
// per-shard outboxes during a window and are exchanged at the window
// barrier in a deterministic merge, drained in fixed source-shard order.
//
// # The pending set
//
// The paper's traffic is timers re-armed at a constant delay (rules
// MM-2 / IM-2 resynchronise every tau) and messages that live at most
// xi, so the pending set (pending.go) is a few FIFO lanes beside a
// hand-specialized 4-ary min-heap. A new event joins the first lane
// that is empty or whose last event precedes it, which keeps every lane
// sorted by construction, and the heap when every lane refuses; the next
// event is the least of the lane heads and the heap top. A timer class
// costs a ring append and a ring read however many timers are pending;
// only what arrives out of order (messages with random delays, a handful
// in flight at a time) pays for a heap, and that heap is shallow. The
// order never depends on where an event was filed: when there are more
// constant delays than lanes, or periods are jittered, or a far-future
// one-off holds a lane until it fires, more events fall to the heap and
// an event costs what it did with the heap alone plus one compare per
// lane. Kernel.Seed only batches; Run sorts the batch before filing it,
// because seeds arrive in node order at random phases and would
// otherwise spend the first period in the heap.
//
// # Determinism across shard counts
//
// The kernel's contract is stronger than reproducibility under one
// configuration: a seeded run is byte-identical for ANY shard count,
// including the degenerate N=1 — which, with its single pending set and
// unbounded window, is the sequential kernel internal/sim runs on. Three
// rules make this hold:
//
//   - Every event carries a key (At, From, Seq), where From is the node
//     that created the event and Seq is that node's own monotone
//     counter. Execution order is the lexicographic order of keys, so
//     the global execution order is a pure function of the workload, not
//     of the partition: keys are unique, so the pending set's pop
//     sequence depends only on its contents, never on insertion order.
//     (The barrier merge still drains outboxes in fixed source-shard
//     order so even its internals are reproducible run-to-run.)
//   - Every random draw comes from a per-node PCG stream seeded from
//     (seed, node). A node's draws depend only on its own event order.
//   - Two events executing in the same window on different shards touch
//     disjoint state (their own nodes'), and the lookahead guarantees a
//     cross-shard message sent in a window cannot arrive inside it:
//     a window spans [tNext, tNext+L) and cross-shard delays are >= L.
//     Any interleaving of a window therefore commutes.
//
// The kernel runs on its caller's goroutine: each window executes the
// shards one after another, so a shard count above one buys no speed,
// only windows and merges. Worker threads gained nothing at any window
// size measured on a two-vCPU host (DESIGN.md section 14).
package shard

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/obs"
)

// Ev is one scheduled event: a timer on a node, or a message delivery to
// a node. Events are value types — lanes, heaps and outboxes hold them
// directly, so scheduling never allocates and the kernel's steady state
// produces no garbage at all.
type Ev struct {
	// At is the virtual delivery/firing time.
	At float64
	// A and B are workload-defined payload scalars (a reading <C, E>, a
	// delay, ...). Fixed scalar payloads instead of `any` are what keep
	// 10^7-event runs free of boxing.
	A, B float64
	// Seq is the per-From sequence number, assigned by the kernel at
	// scheduling time. (At, From, Seq) is the event's globally unique,
	// partition-independent ordering key.
	Seq uint64
	// From is the node that created the event (the sender of a message,
	// the node itself for a timer).
	From int32
	// Node is the node the event executes on.
	Node int32
	// Tag is a workload-defined discriminator (e.g. a round id).
	Tag uint32
	// Kind is the workload-defined dispatch code.
	Kind uint16
}

// Handler consumes events. The kernel calls Event with the executing
// shard's Proc; the handler must only touch state owned by ev.Node (plus
// shard-local aggregates), and must do all scheduling and random draws
// through p.
type Handler interface {
	Event(p *Proc, ev Ev)
}

// Config configures a kernel.
type Config struct {
	// Nodes is the number of simulated nodes. Required.
	Nodes int
	// Shards is the number of partitions. Values < 1 mean 1. Shards
	// never changes results, only the windows and merges it takes.
	Shards int
	// Seed makes the run reproducible: it roots every per-node PCG
	// stream.
	Seed uint64
	// Lookahead is the minimum delay of any cross-shard message, the
	// safe window length. Required > 0 when Shards > 1; ignored for a
	// single shard (the window is unbounded).
	Lookahead float64
	// ShardOf maps a node to its shard in [0, Shards). Nil means
	// contiguous blocks. The workload should align partition boundaries
	// with its slow links (clusters on one shard, backbone across) so
	// Lookahead can be the backbone's minimum delay.
	ShardOf func(node int32) int32
	// Handler dispatches events. Required.
	Handler Handler
}

// Kernel is a sharded simulator.
type Kernel struct {
	shards    []*Proc
	shardOf   []int32
	seqs      []uint64   // per-node event sequence, touched only by the owning shard
	rngs      []rand.PCG // per-node PCG stream, touched only by the owning shard
	handler   Handler
	lookahead float64
	now       float64

	// Observability (nil-safe until Observe).
	obsWindows  *obs.Counter
	obsMerged   *obs.Counter
	obsWinLen   *obs.LogHistogram
	obsExecuted []*obs.Counter // per shard
}

// Proc is one shard's execution context. Handlers receive it to read the
// clock, draw randomness, and schedule.
type Proc struct {
	k     *Kernel
	id    int32
	now   float64
	q     pending // scheduled events, executed in (At, From, Seq) order
	out   [][]Ev  // per-destination-shard outboxes
	steps uint64  // events executed in total
}

// splitmix64 is the SplitMix64 step, used to derive independent PCG seed
// words per node from (seed, node).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a kernel at virtual time zero.
func New(cfg Config) (*Kernel, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("shard: %d nodes", cfg.Nodes)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("shard: nil handler")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	if cfg.Shards > 1 && !(cfg.Lookahead > 0) {
		return nil, fmt.Errorf("shard: %d shards need a positive lookahead, got %v",
			cfg.Shards, cfg.Lookahead)
	}
	k := &Kernel{
		shardOf:   make([]int32, cfg.Nodes),
		seqs:      make([]uint64, cfg.Nodes),
		rngs:      make([]rand.PCG, cfg.Nodes),
		handler:   cfg.Handler,
		lookahead: cfg.Lookahead,
	}
	if cfg.Shards == 1 {
		k.lookahead = math.Inf(1)
	}
	for n := 0; n < cfg.Nodes; n++ {
		var s int32
		if cfg.ShardOf != nil {
			s = cfg.ShardOf(int32(n))
			if s < 0 || int(s) >= cfg.Shards {
				return nil, fmt.Errorf("shard: ShardOf(%d) = %d outside [0,%d)", n, s, cfg.Shards)
			}
		} else {
			s = int32(n * cfg.Shards / cfg.Nodes)
		}
		k.shardOf[n] = s
		h := splitmix64(cfg.Seed ^ splitmix64(uint64(n)+0x51ed2701))
		k.rngs[n].Seed(h, splitmix64(h))
	}
	k.shards = make([]*Proc, cfg.Shards)
	for i := range k.shards {
		p := &Proc{k: k, id: int32(i), out: make([][]Ev, cfg.Shards)}
		k.shards[i] = p
	}
	return k, nil
}

// Close does nothing: the kernel starts no goroutine and holds nothing to
// release. It stays because cmd/bench still calls it.
func (k *Kernel) Close() {}

// Observe registers the kernel's counters in reg: windows executed, the
// window-length histogram (virtual seconds), cross-shard events merged at
// barriers, and per-shard executed-event counters. Counts of windows and
// merges describe the partition, so they legitimately vary with the shard
// count; workload results never do.
func (k *Kernel) Observe(reg *obs.Registry) {
	k.obsWindows = reg.Counter("simshard_windows_total")
	k.obsMerged = reg.Counter("simshard_merged_events_total")
	k.obsWinLen = reg.LogHistogram("simshard_window_seconds")
	k.obsExecuted = make([]*obs.Counter, len(k.shards))
	for i := range k.shards {
		k.obsExecuted[i] = reg.Counter(fmt.Sprintf("simshard_events_executed_total_s%d", i))
	}
}

// Shards returns the shard count.
func (k *Kernel) Shards() int { return len(k.shards) }

// Steps returns the total number of events executed.
func (k *Kernel) Steps() uint64 {
	var n uint64
	for _, p := range k.shards {
		n += p.steps
	}
	return n
}

// Proc returns shard i's context, for seeding initial events before Run.
// Initial events for a node must be scheduled on its owning shard.
func (k *Kernel) Proc(i int) *Proc { return k.shards[i] }

// Seed schedules a timer on node at absolute time at, between Runs, on
// the owning shard. The event takes its key here and joins the shard's
// batch; the next Run admits the batch in key order. A time before Now
// (or NaN) panics: it would run in the executed past.
func (k *Kernel) Seed(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	if !(at >= k.now) {
		panic(fmt.Sprintf("shard: seed at %v before now %v", at, k.now))
	}
	p := k.shards[k.shardOf[node]]
	p.q.seeds = append(p.q.seeds, p.timer(node, at, kind, tag, a, b))
}

// Now returns the shard's current virtual time.
func (p *Proc) Now() float64 { return p.now }

// Uint64 draws from node's PCG stream. The node must be local.
func (p *Proc) Uint64(node int32) uint64 {
	return p.k.rngs[node].Uint64()
}

// Float64 draws a uniform [0, 1) float from node's stream.
func (p *Proc) Float64(node int32) float64 {
	return float64(p.Uint64(node)>>11) / (1 << 53)
}

// timer makes a timer event on a local node at absolute time at, taking
// the node's next sequence number.
func (p *Proc) timer(node int32, at float64, kind uint16, tag uint32, a, b float64) Ev {
	if p.k.shardOf[node] != p.id {
		panic(fmt.Sprintf("shard: timer on node %d scheduled from shard %d (owner %d)",
			node, p.id, p.k.shardOf[node]))
	}
	seq := p.k.seqs[node]
	p.k.seqs[node] = seq + 1
	return Ev{At: at, A: a, B: b, Seq: seq, From: node, Node: node, Tag: tag, Kind: kind}
}

// At schedules a timer on a local node at absolute time at. A time before
// now panics, since it would reorder causality, and so does NaN: a NaN key
// is neither before nor after any other, so it would never run and nothing
// filed behind it would either.
func (p *Proc) At(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	if !(at >= p.now) {
		panic(fmt.Sprintf("shard: timer at %v before now %v", at, p.now))
	}
	p.q.push(p.timer(node, at, kind, tag, a, b))
}

// After schedules a timer on a local node d seconds from now (negative or
// NaN panics, as in At).
func (p *Proc) After(node int32, d float64, kind uint16, tag uint32, a, b float64) {
	if !(d >= 0) {
		panic(fmt.Sprintf("shard: delay %v is not >= 0", d))
	}
	p.q.push(p.timer(node, p.now+d, kind, tag, a, b))
}

// Send schedules a message event from a local node to any node, arriving
// after delay (negative or NaN panics, as in At). Cross-shard sends
// must respect the configured lookahead and buffer in the outbox until
// the window barrier.
func (p *Proc) Send(from, to int32, delay float64, kind uint16, tag uint32, a, b float64) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("shard: delay %v is not >= 0", delay))
	}
	seq := p.k.seqs[from]
	p.k.seqs[from] = seq + 1
	ev := Ev{At: p.now + delay, A: a, B: b, Seq: seq, From: from, Node: to, Tag: tag, Kind: kind}
	dst := p.k.shardOf[to]
	if dst == p.id {
		p.q.push(ev)
		return
	}
	if delay < p.k.lookahead {
		panic(fmt.Sprintf("shard: cross-shard delay %v below lookahead %v (nodes %d->%d)",
			delay, p.k.lookahead, from, to))
	}
	p.out[dst] = append(p.out[dst], ev)
}

// runWindow executes the shard's events with At < horizon, advances the
// shard clock to the horizon, and returns how many events it executed.
func (p *Proc) runWindow(horizon float64) uint64 {
	n := uint64(0)
	for {
		src, next := p.q.least()
		if next == nil || next.At >= horizon {
			break
		}
		ev := p.q.pop(src)
		p.now = ev.At
		n++
		p.k.handler.Event(p, ev)
	}
	p.now = horizon
	p.steps += n
	return n
}

// Run advances the kernel to virtual time `until`: every event with
// At <= until executes, in key order, and all shard clocks land exactly on
// `until`. That is the kernel's one cut. Callers sample between calls, so
// it must be identical for every shard count, and it is: windows stay
// half-open, [tNext, horizon), under a limit one float above `until`, so
// "before the limit" is "at or before until" on every shard, and a message
// sent inside a window cannot land inside it. An `until` before Now (or
// NaN) panics: it would move every clock backward.
func (k *Kernel) Run(until float64) {
	if !(until >= k.now) {
		panic(fmt.Sprintf("shard: run until %v before now %v", until, k.now))
	}
	limit := math.Nextafter(until, math.Inf(1))
	for _, p := range k.shards {
		p.q.admit()
	}
	for {
		tNext := math.Inf(1)
		for _, p := range k.shards {
			if _, next := p.q.least(); next != nil && next.At < tNext {
				tNext = next.At
			}
		}
		if tNext >= limit {
			break
		}
		horizon := limit
		if h := tNext + k.lookahead; h < horizon {
			horizon = h
		}
		for i, p := range k.shards {
			n := p.runWindow(horizon)
			if k.obsExecuted != nil {
				k.obsExecuted[i].Add(n)
			}
		}
		k.obsWindows.Inc()
		k.obsWinLen.Observe(horizon - tNext)
		k.exchange()
	}
	for _, p := range k.shards {
		p.now = until
	}
	k.now = until
}

// exchange is the window barrier's deterministic cross-shard merge: every
// outbox drains into its destination shard's pending set in fixed
// source-shard order. No sort is needed: events carry the globally unique
// total key (At, From, Seq), and the pending set's pop sequence depends
// only on its contents, never on insertion order — so execution is
// identical for any drain order, and the fixed order makes even the
// layout of lanes and heap reproducible.
func (k *Kernel) exchange() {
	for dst, dp := range k.shards {
		total := 0
		for _, sp := range k.shards {
			out := sp.out[dst]
			if len(out) == 0 {
				continue
			}
			total += len(out)
			for i := range out {
				dp.q.push(out[i])
			}
			sp.out[dst] = out[:0]
		}
		if total > 0 {
			k.obsMerged.Add(uint64(total))
		}
	}
}
