package shard

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// size is the number of events pending, the seed batch not counted.
func (q *pending) size() int {
	n := len(q.heap)
	for i := range q.lanes {
		n += int(q.lanes[i].tail - q.lanes[i].head)
	}
	return n
}

// inLanes is how many of them sit in lanes.
func (q *pending) inLanes() int { return q.size() - len(q.heap) }

// capacity is the number of event slots the pending set retains.
func (q *pending) capacity() int {
	n := cap(q.heap) + cap(q.seeds)
	for i := range q.lanes {
		n += len(q.lanes[i].buf)
	}
	return n
}

// next pops the least event the way Run does.
func (q *pending) next() (Ev, bool) {
	src, ev := q.least()
	if ev == nil {
		return Ev{}, false
	}
	return q.pop(src), true
}

// TestHeapKeyOrderStress pushes an adversarial schedule (heavy At
// duplication across many From nodes, in no order, so lanes fill and
// most of it falls to the heap) through the pending set and
// checks pops come out in exact (At, From, Seq) order.
func TestHeapKeyOrderStress(t *testing.T) {
	k, err := New(Config{Nodes: 8, Seed: 3, Handler: &recorder{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := k.Proc()
	for i := 0; i < 5000; i++ {
		n := int32(p.Uint64(0) % 8)
		d := float64(p.Uint64(0) % 50) // heavy duplication
		p.After(n, d, kindTick, 0, 0, 0)
	}
	if len(p.q.heap) == 0 || p.q.inLanes() == 0 {
		t.Fatalf("%d events in the heap and %d in lanes: the schedule should reach both", len(p.q.heap), p.q.inLanes())
	}
	prev := Ev{At: -1}
	for i := 0; i < 5000; i++ {
		ev, ok := p.q.next()
		if !ok || !less(&prev, &ev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, ev, prev)
		}
		prev = ev
	}
	if n := p.q.size(); n != 0 {
		t.Fatalf("%d events left after 5000 pops", n)
	}
}

// FuzzQueue holds the pending set to a sorted slice. The bytes are a
// program over the delay classes the kernel sees: constants (each finds a
// lane), uniform short delays, exact duplicates of an At under another
// From, far-future one-offs that capture a lane, pops, and seed batches
// admitted mid-run. Every pop must be the oracle's minimum, field for
// field, and the sizes must agree after every instruction.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x30, 0x30, 7, 9, 0x30})
	f.Add(bytes.Repeat([]byte{0, 1, 0x06}, 40))                  // ring wrap-around
	f.Add(bytes.Repeat([]byte{0, 8, 16}, 20))                    // ring growth
	f.Add([]byte{5, 9, 5, 7, 5, 5, 5, 3, 5, 1, 0, 1, 2, 0xfe})   // every lane captured: all refuse
	f.Add([]byte{0, 4, 12, 20, 3, 200, 4, 3, 100, 7, 255, 0xfe}) // duplicates, then a seed batch
	f.Add(append(bytes.Repeat([]byte{3, 77, 3, 5}, 30), 0xfe, 7, 31, 0xfe, 0xfe))
	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 512)] // long programs only slow the fuzzer's minimizer
		var q pending
		var want []Ev // ascending under less
		var seqs [8]uint64
		now, lastAt := 0.0, 0.0
		mk := func(at float64, from int32) Ev {
			seqs[from]++
			lastAt = at
			return Ev{At: at, A: float64(len(want)), Seq: seqs[from], From: from, Node: from ^ 1, Tag: uint32(len(prog)), Kind: kindTick}
		}
		expect := func(ev Ev) {
			i, _ := slices.BinarySearchFunc(want, ev, byKey)
			want = slices.Insert(want, i, ev)
		}
		push := func(at float64, from int32) {
			ev := mk(at, from)
			q.push(ev)
			expect(ev)
		}
		pop := func() {
			got, ok := q.next()
			if !ok {
				if len(want) > 0 {
					t.Fatalf("nothing to pop, oracle holds %d", len(want))
				}
				return
			}
			if len(want) == 0 || got != want[0] {
				t.Fatalf("popped %+v, oracle's minimum is %+v", got, want[:min(1, len(want))])
			}
			want, now = want[1:], got.At
		}
		for pc := 0; pc < len(prog); pc++ {
			op, from := prog[pc]&7, int32(prog[pc]>>3&7)
			arg := 0.0
			if op == 3 || op == 5 || op == 7 {
				if pc++; pc < len(prog) {
					arg = float64(prog[pc])
				}
			}
			switch op {
			case 0, 1, 2:
				push(now+[]float64{1, 0.5, 3}[op], from)
			case 3:
				push(now+arg/256*0.01, from)
			case 4:
				push(max(now, lastAt), from)
			case 5:
				push(now+1000*(1+arg), from)
			case 6:
				for i := 0; i <= int(from); i++ {
					pop()
				}
			case 7:
				for i := 0; i <= int(arg)%16; i++ {
					ev := mk(now+float64((int(arg)*(i+1))%17)/8, int32(i%8))
					q.seeds = append(q.seeds, ev)
					expect(ev)
				}
				q.admit()
			}
			if q.size() != len(want) {
				t.Fatalf("instruction %d: %d pending, oracle holds %d", pc, q.size(), len(want))
			}
		}
		for len(want) > 0 {
			pop()
		}
		pop()
	})
}

const kindHalf = 3

// periodic is the paper's traffic in miniature: every node re-arms a
// timer at tau, arms a second at tau/2, and sends one message with a
// uniform delay of at most tau/100 to a random peer.
type periodic struct {
	nodes int32
	tau   float64
}

func (w periodic) Event(p *Proc, ev Ev) {
	if ev.Kind != kindTick {
		return
	}
	n := ev.Node
	p.After(n, w.tau, kindTick, 0, 0, 0)
	p.After(n, w.tau/2, kindHalf, 0, 0, 0)
	peer := int32(p.Uint64(n) % uint64(w.nodes))
	p.Send(n, peer, p.Float64(n)*w.tau/100, kindMsg, 0, 0, 0)
}

// rearm is cmd/bench/stages.go's handler, copied: it does nothing but
// schedule its node's next timer one virtual second on.
type rearm struct{}

func (rearm) Event(p *Proc, ev Ev) { p.After(ev.Node, 1, ev.Kind, 0, 0, 0) }

// TestConstantDelayTimersStayOutOfHeap checks the shape the pending set
// is built for, as counts: under the periodic workload the heap holds no
// more than the messages in flight and the lanes hold every timer, the
// seed batch is gone, and what the rings and the heap retain is at most
// twice what is pending.
func TestConstantDelayTimersStayOutOfHeap(t *testing.T) {
	const nodes, tau = 10000, 60.0
	seed := func(k *Kernel, period float64) {
		rng := rand.New(rand.NewPCG(11, 1))
		for n := int32(0); n < nodes; n++ {
			k.Seed(n, rng.Float64()*period, kindTick, 0, 0, 0)
		}
	}
	k, err := New(Config{Nodes: nodes, Seed: 5, Handler: periodic{nodes: nodes, tau: tau}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seed(k, tau)
	k.Run(2 * tau)
	q := &k.p.q
	if q.seeds != nil {
		t.Errorf("the kernel still holds its seed batch (cap %d)", cap(q.seeds))
	}
	// Each node has a message in flight for a hundredth of the period at
	// most: nodes/200 on average.
	if len(q.heap) > nodes/100 {
		t.Errorf("%d events in the heap, want at most the %d messages in flight", len(q.heap), nodes/100)
	}
	// One tau timer a node, and a tau/2 timer for the half of them that
	// ticked within the last half period.
	if q.inLanes() < nodes+nodes/2-nodes/20 {
		t.Errorf("%d events in lanes, want the %d timers", q.inLanes(), nodes+nodes/2)
	}
	if retained, pending := q.capacity(), q.size(); retained > 2*pending {
		t.Errorf("rings and heap retain %d slots for %d pending events, want at most twice", retained, pending)
	}

	k, err = New(Config{Nodes: nodes, Seed: 5, Handler: rearm{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seed(k, 1)
	for _, until := range []float64{1, 5} {
		k.Run(until)
		if q := &k.p.q; len(q.heap) != 0 || q.inLanes() != nodes {
			t.Fatalf("rearm at t=%v: %d events in the heap and %d in lanes, want 0 and %d", until, len(q.heap), q.inLanes(), nodes)
		}
	}
}

// TestSeedBatchAllocs holds seeding to one allocation: a 10k-node kernel
// seeded with one timer per node makes its batch once, at the node count,
// instead of regrowing it.
func TestSeedBatchAllocs(t *testing.T) {
	const nodes = 10000
	var k *Kernel
	build := func() {
		var err error
		if k, err = New(Config{Nodes: nodes, Seed: 1, Handler: rearm{}}); err != nil {
			panic(err)
		}
	}
	seed := func() {
		build()
		for n := int32(0); n < nodes; n++ {
			k.Seed(n, float64(n)/nodes, kindTick, 0, 0, 0)
		}
	}
	// The arrays are large enough to start collections; the first one
	// allocates the collector's workers, so it runs before counting.
	runtime.GC()
	bare, seeded := testing.AllocsPerRun(20, build), testing.AllocsPerRun(20, seed)
	if seeded-bare != 1 {
		t.Errorf("New makes %v allocations and New plus a seed per node %v, want one batch more", bare, seeded)
	}
	if q := &k.p.q; len(q.seeds) != nodes || cap(q.seeds) != nodes {
		t.Errorf("the batch holds %d in %d slots, want its %d nodes in as many", len(q.seeds), cap(q.seeds), nodes)
	}
}

// inOrder checks that every event executes after the one before it in
// (At, From, Seq) order, and hands it on.
type inOrder struct {
	Handler
	last Ev // At -1 before the first event
	bad  []string
}

func (o *inOrder) Event(p *Proc, ev Ev) {
	if !less(&o.last, &ev) {
		o.bad = append(o.bad, fmt.Sprintf("ran %+v after %+v", ev, o.last))
	}
	o.last = ev
	o.Handler.Event(p, ev)
}

// TestOutgrownSeedBatch seeds two timers a node, the second earlier than
// the first and both at a time every node shares, so the batch outgrows
// the size it was made at and its sort is left only From and Seq to go
// on. The kernel still executes in key order, and the run is the same
// whichever order the nodes were seeded in.
func TestOutgrownSeedBatch(t *testing.T) {
	const nodes, l = 64, 0.25
	var want string
	for _, reversed := range []bool{false, true} {
		g := newGossip(nodes, l)
		o := &inOrder{Handler: g, last: Ev{At: -1}}
		k, err := New(Config{Nodes: nodes, Seed: 7, Handler: o})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, at := range []float64{0.5, 0.1} {
			for i := int32(0); i < nodes; i++ {
				n := i
				if reversed {
					n = nodes - 1 - i
				}
				k.Seed(n, at, kindTick, 0, 0, 0)
			}
		}
		if len(k.p.q.seeds) != 2*nodes {
			t.Fatalf("reversed=%v: the batch holds %d, want two for each of %d nodes", reversed, len(k.p.q.seeds), nodes)
		}
		k.Run(3)
		if len(o.bad) > 0 {
			t.Fatalf("reversed=%v: %d events out of key order, first: %s", reversed, len(o.bad), o.bad[0])
		}
		got := g.fingerprint()
		if !reversed {
			want = got
		} else if got != want {
			t.Fatalf("nodes seeded in reverse: digest %s, want %s", got, want)
		}
	}
}

// TestLaterSeedBatchGrowsByAppend checks only the first batch is made at
// the node count: a batch seeded after a Run grows the way append grows a
// slice, however many nodes the kernel has.
func TestLaterSeedBatchGrowsByAppend(t *testing.T) {
	const nodes = 10000
	k, err := New(Config{Nodes: nodes, Seed: 1, Handler: &recorder{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Seed(0, 0, kindTick, 0, 0, 0)
	k.Run(1)
	var ref []Ev
	for n := int32(0); n < 5; n++ {
		k.Seed(n, 2, kindTick, 0, 0, 0)
		ref = append(ref, Ev{})
		if q := &k.p.q; cap(q.seeds) != cap(ref) {
			t.Fatalf("after %d seeds the second batch has %d slots, want append's %d", n+1, cap(q.seeds), cap(ref))
		}
	}
}

// TestSchedulingAllocs checks the value-typed scheduling path is
// allocation-free once the rings and the heap's backing array are warm:
// with a lane captured by a far-future one-off, ascending times fill a
// ring and wrap around it, descending times are refused by every lane
// and go through the heap.
func TestSchedulingAllocs(t *testing.T) {
	k, err := New(Config{Nodes: 2, Seed: 1, Handler: &recorder{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := k.Proc()
	p.After(0, 1e9, kindTick, 0, 0, 0)
	cycle := func() {
		for i := 0; i < 24; i++ {
			p.After(0, float64(i), kindTick, 0, 0, 0)
		}
		for i := 24; i > 0; i-- {
			p.After(1, float64(i), kindTick, 0, 0, 0)
		}
		for p.q.size() > 1 {
			p.q.next()
		}
	}
	cycle() // warm
	if len(p.q.lanes[1].buf) != 32 || cap(p.q.heap) == 0 {
		t.Fatalf("warm cycle left a ring of %d and a heap of %d: want 32, so that 24 a cycle wraps it, and a used heap",
			len(p.q.lanes[1].buf), cap(p.q.heap))
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("warm push/pop cycle allocates %v per op, want 0", allocs)
	}
}

// TestRunAllocs holds the run loop (Run, After, Send, push, least, pop)
// at zero allocations: once the rings and the heap have reached their
// steady size, advancing a kernel whose nodes re-arm a timer and message
// random peers allocates nothing, with a far-future one-off holding a
// lane throughout.
func TestRunAllocs(t *testing.T) {
	const nodes, l = 128, 1.0
	k, err := New(Config{Nodes: nodes, Seed: 9, Handler: newGossip(nodes, l)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for n := int32(0); n < nodes; n++ {
		k.Seed(n, float64(n)/nodes, kindTick, 0, 0, 0)
	}
	k.Seed(0, 1e9, kindMsg, 0, 0, 0)
	until := 500.0
	k.Run(until) // warm: rings and heap grow to their high-water mark
	before := k.Steps()
	allocs := testing.AllocsPerRun(50, func() {
		until += 10
		k.Run(until)
	})
	if ran := k.Steps() - before; ran < 51*10*nodes {
		t.Fatalf("only %d events in the measured runs", ran)
	}
	if allocs != 0 {
		t.Errorf("a warm Run allocates %v times per 10 virtual seconds, want 0", allocs)
	}
}
