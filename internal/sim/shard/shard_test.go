package shard

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"disttime/internal/obs"
)

// gossip is the test workload: every node re-arms a jittered timer and, on
// each tick, sends payloads to two randomly drawn peers. Receipt order,
// payload values, and the nodes' own random streams all fold into a
// per-node FNV-1a hash, so the fingerprint is sensitive to any
// perturbation of event order or randomness.
type gossip struct {
	nodes int32
	l     float64 // minimum message delay == kernel lookahead
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

// runGossip builds a kernel, seeds one tick per node, and runs it in
// sampled segments (several Run calls), returning the digest after each
// segment. Sampling mid-run is deliberate: the Run(until) cut must be
// partition-independent too.
func runGossip(t *testing.T, nodes int32, shards int, seed uint64, shardOf func(int32) int32) []string {
	t.Helper()
	const l = 0.25
	g := newGossip(nodes, l)
	k, err := New(Config{
		Nodes: int(nodes), Shards: shards, Seed: seed,
		Lookahead: l, ShardOf: shardOf, Handler: g,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for n := int32(0); n < nodes; n++ {
		k.Seed(n, float64(n%7)*0.01, kindTick, 0, 0, 0)
	}
	var digests []string
	for _, until := range []float64{3, 7, 10} {
		k.Run(until)
		digests = append(digests, g.fingerprint())
	}
	if k.Steps() == 0 {
		t.Fatal("kernel executed no events")
	}
	return digests
}

// TestDeterminismAcrossShardCounts checks the kernel's core contract: a
// seeded run produces byte-identical results for every shard count,
// including mid-run samples, and for a non-default partition map.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260808} {
		want := runGossip(t, 64, 1, seed, nil)
		for _, shards := range []int{2, 4, 8} {
			got := runGossip(t, 64, shards, seed, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d shards %d sample %d: digest %s, want %s (shards=1)",
						seed, shards, i, got[i], want[i])
				}
			}
		}
		// Striped partition instead of contiguous blocks.
		striped := runGossip(t, 64, 4, seed, func(n int32) int32 { return n % 4 })
		for i := range want {
			if striped[i] != want[i] {
				t.Fatalf("seed %d striped: digest %s, want %s", seed, striped[i], want[i])
			}
		}
	}
}

// TestDeterminismSeedSensitivity checks different seeds give different
// runs (the digest is not degenerate).
func TestDeterminismSeedSensitivity(t *testing.T) {
	a := runGossip(t, 32, 2, 1, nil)
	b := runGossip(t, 32, 2, 2, nil)
	if a[len(a)-1] == b[len(b)-1] {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a[0])
	}
}

// refRun is an independent reference executor: it ignores windows and
// barriers entirely, instead repeatedly executing the globally minimal
// event by (At, From, Seq) across all shards' pending sets and draining
// outboxes after every event. Agreement with Run means the windowed,
// batched, merge-at-barrier machinery preserves the one true event order.
func refRun(k *Kernel, until float64) {
	for _, p := range k.shards {
		p.q.admit()
	}
	for {
		var p *Proc
		var src int
		var next *Ev
		for _, sp := range k.shards {
			if s, ev := sp.q.least(); ev != nil && (next == nil || less(ev, next)) {
				p, src, next = sp, s, ev
			}
		}
		if next == nil || next.At > until {
			break
		}
		ev := p.q.pop(src)
		p.now = ev.At
		p.steps++
		k.handler.Event(p, ev)
		// Drain every outbox immediately; arrival times are all in the
		// future, so eager delivery cannot disturb key order.
		for _, sp := range k.shards {
			for dst := range sp.out {
				for _, out := range sp.out[dst] {
					k.shards[dst].q.push(out)
				}
				sp.out[dst] = sp.out[dst][:0]
			}
		}
	}
	for _, p := range k.shards {
		p.now = until
	}
	k.now = until
}

// TestWindowedRunMatchesReference cross-checks Run against refRun on the
// same workload and seed.
func TestWindowedRunMatchesReference(t *testing.T) {
	const l = 0.25
	build := func() (*gossip, *Kernel) {
		g := newGossip(48, l)
		k, err := New(Config{Nodes: 48, Shards: 4, Seed: 99, Lookahead: l, Handler: g})
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
	gGot, kWin := build()
	kWin.Run(8)
	if gGot.fingerprint() != gWant.fingerprint() {
		t.Fatalf("windowed digest %s, reference digest %s", gGot.fingerprint(), gWant.fingerprint())
	}
	if kWin.Steps() != kRef.Steps() {
		t.Fatalf("windowed executed %d events, reference %d", kWin.Steps(), kRef.Steps())
	}
}

// TestKernelStartsNoGoroutine checks the kernel runs on its caller alone:
// building, seeding and running it at any shard count leaves no other
// goroutine running this package's code, so there is nothing for Close
// to stop. It counts only goroutines with a frame in this package, so a
// goroutine of another test's or of the runtime coming or going (under
// -race, say) does not move it.
func TestKernelStartsNoGoroutine(t *testing.T) {
	const l = 0.25
	for _, shards := range []int{1, 2, 4} {
		g := newGossip(16, l)
		k, err := New(Config{Nodes: 16, Shards: shards, Seed: 3, Lookahead: l, Handler: g})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for n := int32(0); n < 16; n++ {
			k.Seed(n, 0, kindTick, 0, 0, 0)
		}
		k.Run(2)
		if others := shardGoroutines(); len(others) > 0 {
			t.Fatalf("shards %d: %d goroutines in package shard after New, Seed and Run:\n%s",
				shards, len(others), strings.Join(others, "\n\n"))
		}
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
// also sends node 3 a message one lookahead away.
type relay struct{ got [4][]float64 }

func (r *relay) Event(p *Proc, ev Ev) {
	r.got[ev.Node] = append(r.got[ev.Node], ev.At)
	if ev.Kind == kindTick && ev.Node == 0 {
		p.Send(0, 3, 1, kindMsg, 0, 0, 0)
	}
}

// TestRunBoundary pins the Run(until) cut for every shard count: events at
// exactly `until` execute in that call, among them a message sent in the
// window before (across shards when there are any) that lands exactly on
// `until`; an event one float later waits for the next call.
func TestRunBoundary(t *testing.T) {
	after := math.Nextafter(2, 3)
	for _, shards := range []int{1, 2, 4} {
		r := &relay{}
		k, err := New(Config{Nodes: 4, Shards: shards, Seed: 1, Lookahead: 1, Handler: r})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		k.Seed(0, 1, kindTick, 0, 0, 0) // its message reaches node 3 at 2
		k.Seed(1, 2, kindTick, 0, 0, 0)
		k.Seed(2, after, kindTick, 0, 0, 0)
		check := func(when string, want [4][]float64) {
			t.Helper()
			if !reflect.DeepEqual(r.got, want) {
				t.Fatalf("shards %d, %s: per-node execution times %v, want %v", shards, when, r.got, want)
			}
		}
		k.Run(2)
		atCut := [4][]float64{{1}, {2}, nil, {2}}
		check("Run(2)", atCut)
		if now, pnow := k.now, k.Proc(shards-1).Now(); now != 2 || pnow != 2 {
			t.Fatalf("shards %d: Now() = %v and the last shard's = %v after Run(2), want 2", shards, now, pnow)
		}
		k.Run(2)
		check("a second Run(2)", atCut)
		k.Run(2.5)
		check("Run(2.5)", [4][]float64{{1}, {2}, {after}, {2}})
		if k.Steps() != 4 {
			t.Fatalf("shards %d: %d events executed, want 4", shards, k.Steps())
		}
	}
}

// TestLookaheadViolationPanics checks a cross-shard send below the
// configured lookahead is rejected loudly rather than silently breaking
// the window invariant.
type violator struct{ delay float64 }

func (v *violator) Event(p *Proc, ev Ev) {
	// Node 0 lives on shard 0, node 3 on the last shard.
	p.Send(0, 3, v.delay, kindMsg, 0, 0, 0)
}

func TestLookaheadViolationPanics(t *testing.T) {
	k, err := New(Config{Nodes: 4, Shards: 2, Seed: 1, Lookahead: 0.5, Handler: &violator{delay: 0.1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Seed(0, 0, kindTick, 0, 0, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard send below lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic %v, want a lookahead violation", r)
		}
	}()
	k.Run(1)
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
// from a handler before the cut the running Run lands on, a Run
// backward, and an At on a node another shard owns.
// NaN has its own rows because it passes a d < 0 test, and its key,
// neither before nor after any other, would sit at the head of the
// pending set and stop every event behind it.
func TestNegativeDelayPanics(t *testing.T) {
	r := &recorder{}
	k, err := New(Config{Nodes: 2, Shards: 1, Seed: 1, Handler: r})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Run(10)
	p := k.Proc(0)
	two, err := New(Config{Nodes: 2, Shards: 2, Seed: 1, Lookahead: 1, Handler: r})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Node 1 fires at 5 on shard 1 and seeds node 0 on shard 0, whose
	// clock has reached 6 by then: the window is [5, 6) and shard 0 runs
	// first. A seed at 7 is ahead of that clock but behind the Run's
	// until, 10, and the next Run would start from 10 too.
	seedsAt := func(at float64) *Kernel {
		h := &reseeder{at: at}
		k, err := New(Config{Nodes: 2, Shards: 2, Seed: 1, Lookahead: 1, Handler: h})
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
		{"At on another shard's node", func() { two.Proc(0).At(1, 20, kindTick, 0, 0, 0) }},
		{"Send(-1)", func() { p.Send(0, 1, -1, kindMsg, 0, 0, 0) }},
		{"Send(NaN)", func() { p.Send(0, 1, math.NaN(), kindMsg, 0, 0, 0) }},
		{"Seed(5) after Run(10)", func() { k.Seed(0, 5, kindTick, 0, 0, 0) }},
		{"Seed(NaN)", func() { k.Seed(0, math.NaN(), kindTick, 0, 0, 0) }},
		{"Seed from a handler behind its shard's clock", func() { behind.Run(10) }},
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

// TestConfigValidation covers New's error paths and clamping.
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
	if _, err := New(Config{Nodes: 4, Shards: 2, Lookahead: 0, Handler: h}); err == nil {
		t.Fatal("multi-shard with zero lookahead accepted")
	}
	if _, err := New(Config{Nodes: 4, Shards: 2, Lookahead: 1,
		ShardOf: func(int32) int32 { return 9 }, Handler: h}); err == nil {
		t.Fatal("out-of-range ShardOf accepted")
	}
	k, err := New(Config{Nodes: 3, Shards: 16, Lookahead: 1, Handler: h})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if k.Shards() != 3 {
		t.Fatalf("Shards() = %d with 3 nodes, want clamped to 3", k.Shards())
	}
	if k.shardOf[2] != 2 {
		t.Fatalf("shardOf[2] = %d, want 2", k.shardOf[2])
	}
}

// TestObserve checks the kernel's metrics: windows advance, cross-shard
// merges are counted, and per-shard executed counters sum to Steps().
func TestObserve(t *testing.T) {
	const l = 0.25
	g := newGossip(32, l)
	k, err := New(Config{Nodes: 32, Shards: 4, Seed: 5, Lookahead: l, Handler: g})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := obs.NewRegistry()
	k.Observe(reg)
	for n := int32(0); n < 32; n++ {
		k.Seed(n, 0, kindTick, 0, 0, 0)
	}
	k.Run(5)
	if v := reg.Counter("simshard_windows_total").Value(); v == 0 {
		t.Fatal("no windows recorded")
	}
	if v := reg.Counter("simshard_merged_events_total").Value(); v == 0 {
		t.Fatal("no cross-shard merges recorded on a 4-shard gossip run")
	}
	var executed uint64
	for i := 0; i < 4; i++ {
		executed += reg.Counter(fmt.Sprintf("simshard_events_executed_total_s%d", i)).Value()
	}
	if executed != k.Steps() {
		t.Fatalf("per-shard executed counters sum to %d, Steps() = %d", executed, k.Steps())
	}
	if reg.LogHistogram("simshard_window_seconds").Count() == 0 {
		t.Fatal("window-length histogram empty")
	}
}
