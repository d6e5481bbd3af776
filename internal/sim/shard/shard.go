// Package shard is the sharded, deterministic discrete-event simulation
// kernel behind the planet-scale scenarios: the multi-network "internet"
// of the paper's Xerox setting grown to 10^5 servers and beyond, which
// the single-heap kernel of internal/sim cannot reach.
//
// Nodes are partitioned across N shards. Each shard owns a
// hand-specialized 4-ary min-heap of value-typed events (the pooled
// event idiom of internal/sim taken one step further: events are plain
// values in the heap's backing array, so there is nothing to pool and
// nothing to box) and advances in lockstep windows bounded by the
// minimum cross-shard message delay (the conservative-PDES lookahead).
// Cross-shard deliveries buffer in per-shard outboxes during a window
// and are exchanged at the window barrier in a deterministic merge,
// drained in fixed source-shard order.
//
// # Determinism across shard counts
//
// The kernel's contract is stronger than reproducibility under one
// configuration: a seeded run is byte-identical for ANY shard count,
// including the degenerate N=1 — which, with its single heap and
// unbounded window, IS the sequential kernel. Three rules make this
// hold:
//
//   - Every event carries a key (At, From, Seq), where From is the node
//     that created the event and Seq is that node's own monotone
//     counter. Heap order is the lexicographic order of keys, so the
//     global execution order is a pure function of the workload, not of
//     the partition: keys are unique, so a min-heap's pop sequence
//     depends only on its contents, never on insertion order. (The
//     barrier merge still drains outboxes in fixed source-shard order so
//     even heap internals are reproducible run-to-run.)
//   - Every random draw comes from a per-node PCG stream seeded from
//     (seed, node). A node's draws depend only on its own event order.
//   - Two events executing in the same window on different shards touch
//     disjoint state (their own nodes'), and the lookahead guarantees a
//     cross-shard message sent in a window cannot arrive inside it:
//     a window spans [tNext, tNext+L) and cross-shard delays are >= L.
//     Any interleaving of a window therefore commutes.
//
// Shards execute their windows on a par.Pool, so the worker budget and
// the shard count are independent knobs; on an exhausted budget (or a
// single-core machine) the pool collapses to an inline loop and the
// kernel is simply a fast sequential simulator with deterministic
// sharded semantics. Sparse windows are executed inline regardless of
// budget — dispatching goroutines to move one event is slower than
// moving it.
package shard

import (
	"fmt"
	"math"
	"math/rand/v2"

	"disttime/internal/obs"
	"disttime/internal/par"
)

// Ev is one scheduled event: a timer on a node, or a message delivery to
// a node. Events are value types — heaps and outboxes hold them directly,
// so scheduling never allocates and the kernel's steady state produces no
// garbage at all.
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
	// never changes results, only the potential for parallelism.
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
	shards     []*Proc
	shardOf    []int32
	seqs       []uint64   // per-node event sequence, touched only by the owning shard
	rngs       []rand.PCG // per-node PCG stream, touched only by the owning shard
	handler    Handler
	pool       *par.Pool
	runShareFn func(int) // k.runShare bound once; a fresh method value per window would allocate
	lookahead  float64
	now        float64
	horizon    float64
	lastBurst  int // events executed in the previous window, for the inline heuristic

	// Observability (nil-safe until Observe).
	obsWindows  *obs.Counter
	obsMerged   *obs.Counter
	obsWinLen   *obs.LogHistogram
	obsExecuted []*obs.Counter // per shard
}

// Proc is one shard's execution context. Handlers receive it to read the
// clock, draw randomness, and schedule.
type Proc struct {
	k        *Kernel
	id       int32
	now      float64
	heap     []Ev   // 4-ary min-heap by (At, From, Seq)
	out      [][]Ev // per-destination-shard outboxes
	executed uint64 // events executed in the current window
	steps    uint64 // events executed in total
}

// inlineBurst is the window size (events) below which the kernel runs
// shards inline even when pool workers are available: barrier handoffs
// cost more than the work. Purely a scheduling heuristic — execution
// order is identical either way.
const inlineBurst = 192

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
	k.pool = par.NewPool(cfg.Shards)
	k.runShareFn = k.runShare
	return k, nil
}

// Close releases the kernel's worker pool. The kernel must be idle.
func (k *Kernel) Close() { k.pool.Close() }

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

// Now returns the kernel's virtual time (the horizon every shard has
// reached).
func (k *Kernel) Now() float64 { return k.now }

// Shards returns the shard count.
func (k *Kernel) Shards() int { return len(k.shards) }

// ShardOf returns the shard owning node.
func (k *Kernel) ShardOf(node int32) int32 { return k.shardOf[node] }

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

// Seed schedules an initial timer on node at absolute time at, routing to
// the owning shard. It is the pre-Run convenience over Proc/At.
func (k *Kernel) Seed(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	k.shards[k.shardOf[node]].at(node, at, kind, tag, a, b)
}

// Now returns the shard's current virtual time.
func (p *Proc) Now() float64 { return p.now }

// Shard returns the shard's index.
func (p *Proc) Shard() int32 { return p.id }

// Uint64 draws from node's PCG stream. The node must be local.
func (p *Proc) Uint64(node int32) uint64 {
	return p.k.rngs[node].Uint64()
}

// Float64 draws a uniform [0, 1) float from node's stream.
func (p *Proc) Float64(node int32) float64 {
	return float64(p.Uint64(node)>>11) / (1 << 53)
}

// at schedules a timer event on a local node at absolute time at.
//
//lint:noalloc
func (p *Proc) at(node int32, at float64, kind uint16, tag uint32, a, b float64) {
	if p.k.shardOf[node] != p.id {
		panic(fmt.Sprintf("shard: timer on node %d scheduled from shard %d (owner %d)",
			node, p.id, p.k.shardOf[node]))
	}
	seq := p.k.seqs[node]
	p.k.seqs[node] = seq + 1
	p.push(Ev{At: at, A: a, B: b, Seq: seq, From: node, Node: node, Tag: tag, Kind: kind})
}

// After schedules a timer on a local node d seconds from now. Negative
// delays panic: they would reorder causality.
//
//lint:noalloc
func (p *Proc) After(node int32, d float64, kind uint16, tag uint32, a, b float64) {
	if d < 0 {
		panic(fmt.Sprintf("shard: negative delay %v", d))
	}
	p.at(node, p.now+d, kind, tag, a, b)
}

// Send schedules a message event from a local node to any node, arriving
// after delay. Cross-shard sends must respect the configured lookahead
// and buffer in the outbox until the window barrier.
//
//lint:noalloc
func (p *Proc) Send(from, to int32, delay float64, kind uint16, tag uint32, a, b float64) {
	if delay < 0 {
		panic(fmt.Sprintf("shard: negative delay %v", delay))
	}
	seq := p.k.seqs[from]
	p.k.seqs[from] = seq + 1
	ev := Ev{At: p.now + delay, A: a, B: b, Seq: seq, From: from, Node: to, Tag: tag, Kind: kind}
	dst := p.k.shardOf[to]
	if dst == p.id {
		p.push(ev)
		return
	}
	if delay < p.k.lookahead {
		panic(fmt.Sprintf("shard: cross-shard delay %v below lookahead %v (nodes %d->%d)",
			delay, p.k.lookahead, from, to))
	}
	p.out[dst] = append(p.out[dst], ev)
}

// runWindow executes the shard's events with At < horizon and advances
// the shard clock to the horizon.
//
//lint:noalloc
func (p *Proc) runWindow(horizon float64) {
	n := uint64(0)
	for len(p.heap) > 0 && p.heap[0].At < horizon {
		ev := p.pop()
		p.now = ev.At
		n++
		p.k.handler.Event(p, ev)
	}
	p.now = horizon
	p.executed = n
	p.steps += n
}

// runShare is the pool body: one shard's window.
//
//lint:noalloc
func (k *Kernel) runShare(i int) {
	k.shards[i].runWindow(k.horizon)
}

// Run advances the kernel to virtual time `until`: every event with
// At < until executes, in key order, and all shard clocks land exactly on
// `until`. Events scheduled at exactly `until` run in the next call —
// callers sample between calls, so the cut must be identical for every
// shard count, and it is: the strict inequality is partition-independent.
//
//lint:noalloc
func (k *Kernel) Run(until float64) {
	for {
		tNext := math.Inf(1)
		for _, p := range k.shards {
			if len(p.heap) > 0 && p.heap[0].At < tNext {
				tNext = p.heap[0].At
			}
		}
		if tNext >= until {
			break
		}
		horizon := until
		if h := tNext + k.lookahead; h < horizon {
			horizon = h
		}
		k.horizon = horizon
		if len(k.shards) == 1 {
			k.shards[0].runWindow(horizon)
		} else if k.lastBurst >= inlineBurst && k.pool.Workers() > 0 {
			k.pool.Run(k.runShareFn)
		} else {
			for i := range k.shards {
				k.runShare(i)
			}
		}
		burst := 0
		for i, p := range k.shards {
			burst += int(p.executed)
			if k.obsExecuted != nil {
				k.obsExecuted[i].Add(p.executed)
			}
		}
		k.lastBurst = burst
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
// outbox drains into its destination shard's heap in fixed source-shard
// order. No sort is needed: events carry the globally unique total key
// (At, From, Seq), and a min-heap's pop sequence under a total order
// depends only on its contents, never on insertion order — so execution
// is identical for any drain order, and the fixed order makes even the
// heap layout reproducible.
//
//lint:noalloc
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
				dp.push(out[i])
			}
			sp.out[dst] = out[:0]
		}
		if total > 0 {
			k.obsMerged.Add(uint64(total))
		}
	}
}

// --- hand-specialized 4-ary min-heap over Ev values ---

// less orders events by the partition-independent key (At, From, Seq).
func less(a, b *Ev) bool {
	if a.At < b.At {
		return true
	}
	if b.At < a.At {
		return false
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Seq < b.Seq
}

// The heap is 4-ary: parent (i-1)/4, children 4i+1..4i+4. Sift-up — the
// hot direction, since every barrier merge is a run of pushes — walks
// half the levels of a binary heap; sift-down compares up to four
// children per level but over half the levels, so pop breaks even.
// Both directions sift a hole instead of swapping: one 48-byte copy per
// level rather than two.

// push inserts ev.
//
//lint:noalloc
func (p *Proc) push(ev Ev) {
	q := append(p.heap, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&ev, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	p.heap = q
}

// pop removes and returns the minimum event, sifting a hole down for the
// displaced last element. The heap must be non-empty.
//
//lint:noalloc
func (p *Proc) pop() Ev {
	q := p.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	p.heap = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for r := c + 1; r < end; r++ {
			if less(&q[r], &q[c]) {
				c = r
			}
		}
		if !less(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
