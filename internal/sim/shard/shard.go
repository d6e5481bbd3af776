// Package shard is the repository's one discrete-event kernel: the only
// code that orders pending events and advances virtual time. At 10^5
// nodes it runs the planet-scale scenarios of internal/scale, the
// multi-network "internet" of the paper's Xerox setting grown large; with
// one node it is what internal/sim's closure API stands on, under every
// experiment, the chaos harness and the transaction tier.
//
// A kernel is one pending set of value-typed events (plain values in
// backing arrays, so there is nothing to pool and nothing to box), one
// clock, and a random stream per node, run on its caller's goroutine.
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
// lane. Kernel.Seed only batches, into an array made once at the
// kernel's node count, so a 10^5-node kernel is seeded without regrowing
// it; Run sorts the batch before filing it, because seeds arrive in node
// order at random phases and would otherwise spend the first period in
// the heap.
//
// # Determinism
//
// A seeded run is byte-identical from run to run, and two rules make
// its order a function of the workload alone:
//
//   - Every event carries a key (At, From, Seq), where From is the node
//     that created the event and Seq is that node's own monotone
//     counter. Execution order is the lexicographic order of keys, and
//     keys are unique, so the pending set's pop sequence depends only on
//     its contents, never on insertion order or on the lane an event
//     was filed in.
//   - Every random draw comes from a per-node PCG stream seeded from
//     (seed, node). A node's draws depend only on its own event order.
package shard

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Ev is one scheduled event: a timer on a node, or a message delivery to
// a node. Events are value types — lanes and the heap hold them
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
	// scheduling time. (At, From, Seq) is the event's unique ordering
	// key.
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

// Handler consumes events. The kernel calls Event with its Proc; the
// handler must do all scheduling and random draws through p.
type Handler interface {
	Event(p *Proc, ev Ev)
}

// Config configures a kernel.
type Config struct {
	// Nodes is the number of simulated nodes. Required.
	Nodes int
	// Shards is inert: the kernel is one pending set. It stays because
	// cmd/bench sets it.
	Shards int
	// Seed makes the run reproducible: it roots every per-node PCG
	// stream.
	Seed uint64
	// Lookahead is inert, as Shards is, and stays for the same reason.
	Lookahead float64
	// Handler dispatches events. Required.
	Handler Handler
}

// Kernel is the event kernel.
type Kernel struct {
	p     Proc
	now   float64 // the cut the last Run landed on, or the running one will
	nodes int     // the size the first seed batch is made at; zero once made
}

// Proc is the kernel's execution context. Handlers receive it to read the
// clock, draw randomness, and schedule.
type Proc struct {
	now     float64
	q       pending    // scheduled events, executed in (At, From, Seq) order
	seqs    []uint64   // per-node event sequence
	rngs    []rand.PCG // per-node PCG stream
	handler Handler
	steps   uint64 // events executed in total
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
	if cfg.Nodes <= 0 || cfg.Nodes > math.MaxInt32 {
		// Node ids are int32, so 1<<31 nodes or more would wrap.
		return nil, fmt.Errorf("shard: %d nodes not in [1, %d]", cfg.Nodes, math.MaxInt32)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("shard: nil handler")
	}
	k := &Kernel{nodes: cfg.Nodes, p: Proc{
		seqs:    make([]uint64, cfg.Nodes),
		rngs:    make([]rand.PCG, cfg.Nodes),
		handler: cfg.Handler,
	}}
	for n := range k.p.rngs {
		h := splitmix64(cfg.Seed ^ splitmix64(uint64(n)+0x51ed2701))
		k.p.rngs[n].Seed(h, splitmix64(h))
	}
	return k, nil
}

// Close does nothing: the kernel starts no goroutine and holds nothing to
// release. It stays because cmd/bench still calls it.
func (k *Kernel) Close() {}

// Steps returns the total number of events executed.
func (k *Kernel) Steps() uint64 { return k.p.steps }

// Proc returns the kernel's context, for scheduling from outside a
// handler.
func (k *Kernel) Proc() *Proc { return &k.p }

// Seed schedules a timer on node at absolute time at. The event takes its
// key here and joins the seed batch; the next Run admits the batch in key
// order, starting from the cut the last Run landed on. A time before that
// cut (or NaN) panics, since it would run in the executed past: before
// Now between Runs, and from a handler, before the running Run's until.
//
// The first batch is made at the node count, the size of one timer per
// node, so seeding a large kernel copies nothing; later batches grow as
// append grows them.
func (k *Kernel) Seed(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	if !(at >= k.now) {
		panic(fmt.Sprintf("shard: seed at %v before now %v", at, k.now))
	}
	p := &k.p
	if k.nodes > 0 {
		p.q.seeds = make([]Ev, 0, k.nodes)
		k.nodes = 0
	}
	p.q.seeds = append(p.q.seeds, p.timer(node, at, kind, tag, a, b))
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.now }

// Uint64 draws from node's PCG stream.
func (p *Proc) Uint64(node int32) uint64 {
	return p.rngs[node].Uint64()
}

// Float64 draws a uniform [0, 1) float from node's stream.
func (p *Proc) Float64(node int32) float64 {
	return float64(p.Uint64(node)>>11) / (1 << 53)
}

// timer makes a timer event on node at absolute time at, taking the
// node's next sequence number.
func (p *Proc) timer(node int32, at float64, kind uint16, tag uint32, a, b float64) Ev {
	seq := p.seqs[node]
	p.seqs[node] = seq + 1
	return Ev{At: at, A: a, B: b, Seq: seq, From: node, Node: node, Tag: tag, Kind: kind}
}

// At schedules a timer on node at absolute time at. A time before now
// panics, since it would reorder causality, and so does NaN: a NaN key is
// neither before nor after any other, so it would never run and nothing
// filed behind it would either.
func (p *Proc) At(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	if !(at >= p.now) {
		panic(fmt.Sprintf("shard: timer at %v before now %v", at, p.now))
	}
	p.q.push(p.timer(node, at, kind, tag, a, b))
}

// After schedules a timer on node d seconds from now (negative or NaN
// panics, as in At).
func (p *Proc) After(node int32, d float64, kind uint16, tag uint32, a, b float64) {
	if !(d >= 0) {
		panic(fmt.Sprintf("shard: delay %v is not >= 0", d))
	}
	p.q.push(p.timer(node, p.now+d, kind, tag, a, b))
}

// Send schedules a message event from one node to another, arriving after
// delay (negative or NaN panics, as in At).
func (p *Proc) Send(from, to int32, delay float64, kind uint16, tag uint32, a, b float64) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("shard: delay %v is not >= 0", delay))
	}
	seq := p.seqs[from]
	p.seqs[from] = seq + 1
	p.q.push(Ev{At: p.now + delay, A: a, B: b, Seq: seq, From: from, Node: to, Tag: tag, Kind: kind})
}

// Run advances the kernel to virtual time `until`: every event with
// At <= until executes, in key order, and the clock lands exactly on
// `until`. That is the kernel's one cut; callers sample between calls.
// An `until` before Now (or NaN) panics: it would move the clock
// backward.
func (k *Kernel) Run(until float64) {
	if !(until >= k.now) {
		panic(fmt.Sprintf("shard: run until %v before now %v", until, k.now))
	}
	// Set now first: a handler's Seed joins the batch the next Run admits,
	// once the clock reads until, so Seed refuses anything before it.
	k.now = until
	p := &k.p
	p.q.admit()
	for {
		src, next := p.q.least()
		if next == nil || next.At > until {
			break
		}
		ev := p.q.pop(src)
		p.now = ev.At
		p.steps++
		p.handler.Event(p, ev)
	}
	p.now = until
}
