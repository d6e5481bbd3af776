package shard

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// gossip is the test workload: every node re-arms a jittered timer and, on
// each tick, sends payloads to two randomly drawn peers. Receipt order,
// payload values, and the nodes' own random streams all fold into a
// per-node FNV-1a hash, so the fingerprint is sensitive to any
// perturbation of event order or randomness.
type gossip struct {
	nodes int32
	l     float64 // minimum message delay
	hash  []uint64
	recv  []uint64
}

const (
	kindTick = 1
	kindMsg  = 2
)

func newGossip(nodes int32, l float64) *gossip {
	g := &gossip{nodes: nodes, l: l, hash: make([]uint64, nodes), recv: make([]uint64, nodes)}
	for i := range g.hash {
		g.hash[i] = 14695981039346656037 // FNV offset basis
	}
	return g
}

func (g *gossip) mix(node int32, v uint64) {
	h := g.hash[node]
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	g.hash[node] = h
}

func (g *gossip) Event(p *Proc, ev Ev) {
	switch ev.Kind {
	case kindTick:
		n := ev.Node
		g.mix(n, math.Float64bits(p.Now()))
		for i := 0; i < 2; i++ {
			peer := int32(p.Uint64(n) % uint64(g.nodes))
			delay := g.l * (1 + p.Float64(n))
			p.Send(n, peer, delay, kindMsg, ev.Tag+1, p.Float64(n), float64(n))
		}
		p.After(n, g.l*(0.5+p.Float64(n)), kindTick, ev.Tag+1, 0, 0)
	case kindMsg:
		n := ev.Node
		g.recv[n]++
		g.mix(n, uint64(ev.From))
		g.mix(n, uint64(ev.Tag))
		g.mix(n, math.Float64bits(ev.A))
		g.mix(n, math.Float64bits(ev.At))
	default:
		panic("gossip: unknown kind")
	}
}

// fingerprint folds the full per-node state into one printable digest.
func (g *gossip) fingerprint() string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := range g.hash {
		mix(g.hash[i])
		mix(g.recv[i])
	}
	return fmt.Sprintf("%016x", h)
}

// runGossip builds a kernel, seeds one tick per node, runs it to 10 s in
// three Run calls, and returns the digest.
func runGossip(t *testing.T, nodes int32, seed uint64) string {
	t.Helper()
	g := newGossip(nodes, 0.25)
	k, err := New(Config{Nodes: int(nodes), Seed: seed, Handler: g})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for n := int32(0); n < nodes; n++ {
		k.Seed(n, float64(n%7)*0.01, kindTick, 0, 0, 0)
	}
	for _, until := range []float64{3, 7, 10} {
		k.Run(until)
	}
	if k.Steps() == 0 {
		t.Fatal("kernel executed no events")
	}
	return g.fingerprint()
}

// TestDeterminismSeedSensitivity checks a seed reproduces its run and
// different seeds give different runs (the digest is not degenerate).
func TestDeterminismSeedSensitivity(t *testing.T) {
	a, b := runGossip(t, 32, 1), runGossip(t, 32, 2)
	if again := runGossip(t, 32, 1); again != a {
		t.Fatalf("seed 1 ran twice: digests %s and %s", a, again)
	}
	if a == b {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a)
	}
}

// refHeap is a binary min-heap of events on container/heap, ordered by
// the kernel's key: none of the lanes, the 4-ary heap or the seed sort.
type refHeap []Ev

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return less(&h[i], &h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Ev)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// refRun is an independent reference executor: after every event it
// moves whatever the handler scheduled out of the kernel's pending set
// into a refHeap, and it executes the least event of that heap.
// Agreement with Run means the lanes, the heap and the seed batch
// preserve the one true event order.
func refRun(k *Kernel, until float64) {
	p := &k.p
	p.q.admit()
	var ref refHeap
	for {
		for src, ev := p.q.least(); ev != nil; src, ev = p.q.least() {
			heap.Push(&ref, p.q.pop(src))
		}
		if len(ref) == 0 || ref[0].At > until {
			break
		}
		ev := heap.Pop(&ref).(Ev)
		p.now = ev.At
		p.steps++
		p.handler.Event(p, ev)
	}
	p.now, k.now = until, until
}

// TestWindowedRunMatchesReference cross-checks Run against refRun on the
// same workload and seed.
func TestWindowedRunMatchesReference(t *testing.T) {
	const l = 0.25
	build := func() (*gossip, *Kernel) {
		g := newGossip(48, l)
		k, err := New(Config{Nodes: 48, Seed: 99, Handler: g})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for n := int32(0); n < 48; n++ {
			k.Seed(n, float64(n)*0.003, kindTick, 0, 0, 0)
		}
		return g, k
	}
	gWant, kRef := build()
	refRun(kRef, 8)
	gGot, kRun := build()
	kRun.Run(8)
	if gGot.fingerprint() != gWant.fingerprint() {
		t.Fatalf("Run digest %s, reference digest %s", gGot.fingerprint(), gWant.fingerprint())
	}
	if kRun.Steps() != kRef.Steps() {
		t.Fatalf("Run executed %d events, reference %d", kRun.Steps(), kRef.Steps())
	}
}

// TestKernelStartsNoGoroutine checks the kernel runs on its caller alone:
// building, seeding and running it leaves no other goroutine running this
// package's code, so there is nothing for Close to stop. It counts only
// goroutines with a frame in this package, so a goroutine of another
// test's or of the runtime coming or going (under -race, say) does not
// move it.
func TestKernelStartsNoGoroutine(t *testing.T) {
	g := newGossip(16, 0.25)
	k, err := New(Config{Nodes: 16, Seed: 3, Handler: g})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for n := int32(0); n < 16; n++ {
		k.Seed(n, 0, kindTick, 0, 0, 0)
	}
	k.Run(2)
	if others := shardGoroutines(); len(others) > 0 {
		t.Fatalf("%d goroutines in package shard after New, Seed and Run:\n%s",
			len(others), strings.Join(others, "\n\n"))
	}
}

// shardGoroutines returns the stacks of the goroutines, other than the
// caller's, that have a frame in this package.
func shardGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's stack comes first
		if strings.Contains(g, "disttime/internal/sim/shard.") {
			out = append(out, g)
		}
	}
	return out
}

// recorder notes when events executed.
type recorder struct{ times []float64 }

func (r *recorder) Event(p *Proc, ev Ev) { r.times = append(r.times, ev.At) }

// relay records, per node, when its events executed; a tick on node 0
// also sends node 3 a message one second away.
type relay struct{ got [4][]float64 }

func (r *relay) Event(p *Proc, ev Ev) {
	r.got[ev.Node] = append(r.got[ev.Node], ev.At)
	if ev.Kind == kindTick && ev.Node == 0 {
		p.Send(0, 3, 1, kindMsg, 0, 0, 0)
	}
}

// TestRunBoundary pins the Run(until) cut: events at exactly `until`
// execute in that call, among them a message sent before that lands
// exactly on `until`; an event one float later waits for the next call.
func TestRunBoundary(t *testing.T) {
	after := math.Nextafter(2, 3)
	r := &relay{}
	k, err := New(Config{Nodes: 4, Seed: 1, Handler: r})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Seed(0, 1, kindTick, 0, 0, 0) // its message reaches node 3 at 2
	k.Seed(1, 2, kindTick, 0, 0, 0)
	k.Seed(2, after, kindTick, 0, 0, 0)
	check := func(when string, want [4][]float64) {
		t.Helper()
		if !reflect.DeepEqual(r.got, want) {
			t.Fatalf("%s: per-node execution times %v, want %v", when, r.got, want)
		}
	}
	k.Run(2)
	atCut := [4][]float64{{1}, {2}, nil, {2}}
	check("Run(2)", atCut)
	if now, pnow := k.now, k.Proc().Now(); now != 2 || pnow != 2 {
		t.Fatalf("the cut is %v and Now() %v after Run(2), want 2", now, pnow)
	}
	k.Run(2)
	check("a second Run(2)", atCut)
	k.Run(2.5)
	check("Run(2.5)", [4][]float64{{1}, {2}, {after}, {2}})
	if k.Steps() != 4 {
		t.Fatalf("%d events executed, want 4", k.Steps())
	}
}

// reseeder seeds node 0 at a fixed time from node 1's handler.
type reseeder struct {
	k  *Kernel
	at float64
}

func (r *reseeder) Event(p *Proc, ev Ev) {
	if ev.Node == 1 {
		r.k.Seed(0, r.at, kindTick, 0, 0, 0)
	}
}

// TestNegativeDelayPanics checks the times the kernel must refuse: a
// negative or NaN After/Send delay, an At or a Seed before Now, a Seed
// from a handler before the cut the running Run lands on, and a Run
// backward.
// NaN has its own rows because it passes a d < 0 test, and its key,
// neither before nor after any other, would sit at the head of the
// pending set and stop every event behind it.
func TestNegativeDelayPanics(t *testing.T) {
	r := &recorder{}
	k, err := New(Config{Nodes: 2, Seed: 1, Handler: r})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Run(10)
	p := k.Proc()
	// Node 1 fires at 5 and seeds node 0. A seed at 1 is behind the
	// clock; one at 7 is ahead of it but behind the Run's until, 10, and
	// the next Run would start from 10 too.
	seedsAt := func(at float64) *Kernel {
		h := &reseeder{at: at}
		k, err := New(Config{Nodes: 2, Seed: 1, Handler: h})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		h.k = k
		k.Seed(1, 5, kindTick, 0, 0, 0)
		return k
	}
	behind, early, late := seedsAt(1), seedsAt(7), seedsAt(10)
	for _, row := range []struct {
		name string
		fn   func()
	}{
		{"After(-1)", func() { p.After(0, -1, kindTick, 0, 0, 0) }},
		{"After(NaN)", func() { p.After(0, math.NaN(), kindTick, 0, 0, 0) }},
		{"At(5) after Run(10)", func() { p.At(0, 5, kindTick, 0, 0, 0) }},
		{"At(NaN)", func() { p.At(0, math.NaN(), kindTick, 0, 0, 0) }},
		{"Send(-1)", func() { p.Send(0, 1, -1, kindMsg, 0, 0, 0) }},
		{"Send(NaN)", func() { p.Send(0, 1, math.NaN(), kindMsg, 0, 0, 0) }},
		{"Seed(5) after Run(10)", func() { k.Seed(0, 5, kindTick, 0, 0, 0) }},
		{"Seed(NaN)", func() { k.Seed(0, math.NaN(), kindTick, 0, 0, 0) }},
		{"Seed from a handler behind the clock", func() { behind.Run(10) }},
		{"Seed from a handler before its Run's until", func() { early.Run(10) }},
		{"Run(5) after Run(10)", func() { k.Run(5) }},
		{"Run(NaN)", func() { k.Run(math.NaN()) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", row.name)
				}
			}()
			row.fn()
		}()
	}
	// Nothing refused left a trace: the boundary values are accepted and
	// the four events run.
	k.Seed(0, 10, kindTick, 0, 0, 0)
	p.At(0, 10, kindTick, 0, 0, 0)
	p.After(1, 0, kindTick, 0, 0, 0)
	p.Send(0, 1, 0, kindMsg, 0, 0, 0)
	k.Run(10)
	if len(r.times) != 4 || k.now != 10 {
		t.Fatalf("after the refused calls, Run(10) executed %v and reports Now() = %v; want four events at 10 and Now() = 10", r.times, k.now)
	}
	// A handler's seed at the running Run's until is accepted and runs in
	// the next Run.
	late.Run(10)
	late.Run(20)
	if late.Steps() != 2 {
		t.Fatalf("a seed at until from a handler: %d events executed, want 2", late.Steps())
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	h := &recorder{}
	if _, err := New(Config{Nodes: 0, Handler: h}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	// Rejected before any per-node array is made: accepted, it would
	// allocate tens of GB.
	if _, err := New(Config{Nodes: math.MaxInt32 + 1, Handler: h}); err == nil {
		t.Fatal("Nodes=1<<31, past the int32 node ids, accepted")
	}
	if _, err := New(Config{Nodes: 4}); err == nil {
		t.Fatal("nil handler accepted")
	}
}
