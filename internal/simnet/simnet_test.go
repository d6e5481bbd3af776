package simnet

import (
	"math"
	"testing"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/sim"
)

// counted attaches a registry to n and returns a reader of its
// simnet_messages_<kind>_total counters.
func counted(n *Network) func(kind string) uint64 {
	reg := obs.NewRegistry()
	n.Observe(reg)
	return func(kind string) uint64 { return reg.Counter("simnet_messages_" + kind + "_total").Value() }
}

func newTestNet(t *testing.T, nodes int) (*sim.Simulator, *Network, []NodeID) {
	t.Helper()
	s := sim.New(1)
	n := New(s)
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = n.AddNode(nil)
	}
	return s, n, ids
}

// TestUniformDelay: every delay over a link lies in its band, and a fixed
// band draws nothing from the network's stream: its delay is Min.
func TestUniformDelay(t *testing.T) {
	s, n, ids := newTestNet(t, 2)
	b := core.Band{Min: 0.01, Max: 0.05}
	if err := n.Connect(ids[0], ids[1], LinkConfig{Delay: b}); err != nil {
		t.Fatal(err)
	}
	n.SetHandler(ids[1], func(m Message) {
		if d := s.Now() - m.SentAt; d < b.Min-1e-12 || d > b.Max+1e-12 {
			t.Fatalf("delay %v outside [%v, %v]", d, b.Min, b.Max)
		}
	})
	for i := 0; i < 1000; i++ {
		n.Send(ids[0], ids[1], i)
	}
	s.Run()

	_, fixed, ids := newTestNet(t, 2)
	_, ref, _ := newTestNet(t, 2)
	if err := fixed.Connect(ids[0], ids[1], LinkConfig{Delay: core.Band{Min: 0.3, Max: 0.3}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fixed.Send(ids[0], ids[1], i)
	}
	if got, want := fixed.rng.Uint64(), ref.rng.Uint64(); got != want {
		t.Errorf("a fixed band moved the network's stream: next draw %d, want %d", got, want)
	}
}

func TestConnectValidation(t *testing.T) {
	_, n, ids := newTestNet(t, 2)
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}
	tests := []struct {
		name    string
		a, b    NodeID
		cfg     LinkConfig
		wantErr bool
	}{
		{name: "ok", a: ids[0], b: ids[1], cfg: cfg},
		{name: "self link", a: ids[0], b: ids[0], cfg: cfg, wantErr: true},
		{name: "unknown node", a: ids[0], b: 99, cfg: cfg, wantErr: true},
		{name: "negative id", a: -1, b: ids[1], cfg: cfg, wantErr: true},
		{name: "bad loss", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{}, Loss: 1}, wantErr: true},
		{name: "negative loss", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{}, Loss: -0.1}, wantErr: true},
		{name: "NaN loss", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{}, Loss: math.NaN()}, wantErr: true},
		{name: "negative delay", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{Min: -0.01, Max: 0.05}}, wantErr: true},
		{name: "NaN delay", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{Max: math.NaN()}}, wantErr: true},
		{name: "delay max below min", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{Min: 0.05, Max: 0.01}}, wantErr: true},
		{name: "infinite delay", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{Max: math.Inf(1)}}, wantErr: true},
		{name: "bad reverse delay", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{}, ReverseDelay: &core.Band{Max: math.Inf(1)}}, wantErr: true},
		{name: "ok reverse delay", a: ids[0], b: ids[1], cfg: LinkConfig{Delay: core.Band{}, ReverseDelay: &core.Band{Min: 0.01, Max: 0.02}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := n.Connect(tt.a, tt.b, tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("Connect error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSendDeliversAfterDelay(t *testing.T) {
	s, n, ids := newTestNet(t, 2)
	if err := n.Connect(ids[0], ids[1], LinkConfig{Delay: core.Band{Min: 0.5, Max: 0.5}}); err != nil {
		t.Fatal(err)
	}
	msgs := counted(n)
	var deliveredAt float64 = -1
	var got Message
	n.SetHandler(ids[1], func(m Message) {
		deliveredAt = s.Now()
		got = m
	})
	s.RunUntil(10)
	if !n.Send(ids[0], ids[1], "ping") {
		t.Error("Send returned false")
	}
	s.Run()
	if deliveredAt != 10.5 {
		t.Errorf("delivered at %v, want 10.5", deliveredAt)
	}
	if got.From != ids[0] || got.To != ids[1] || got.Payload != "ping" || got.SentAt != 10 {
		t.Errorf("message = %+v", got)
	}
	if msgs("sent") != 1 || msgs("delivered") != 1 {
		t.Errorf("sent %d, delivered %d", msgs("sent"), msgs("delivered"))
	}
}

func TestSendNoLink(t *testing.T) {
	_, n, ids := newTestNet(t, 3)
	msgs := counted(n)
	if n.Send(ids[0], ids[2], "x") {
		t.Error("Send over missing link returned true")
	}
	if msgs("nolink") != 1 {
		t.Errorf("nolink = %d", msgs("nolink"))
	}
	if n.Send(-1, ids[0], "x") || n.Send(ids[0], 99, "x") {
		t.Error("Send with invalid ids returned true")
	}
}

func TestSendLoss(t *testing.T) {
	s, n, ids := newTestNet(t, 2)
	if err := n.Connect(ids[0], ids[1], LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}, Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	msgs := counted(n)
	delivered := 0
	n.SetHandler(ids[1], func(Message) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		if !n.Send(ids[0], ids[1], i) {
			t.Fatal("lossy Send returned false")
		}
	}
	s.Run()
	if msgs("lost")+uint64(delivered) != total {
		t.Errorf("lost %d + delivered %d != %d", msgs("lost"), delivered, total)
	}
	frac := float64(delivered) / total
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("delivered fraction %v, want about 0.5", frac)
	}
}

func TestNeighbors(t *testing.T) {
	_, n, ids := newTestNet(t, 4)
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}
	if err := n.Connect(ids[2], ids[0], cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(ids[0], ids[3], cfg); err != nil {
		t.Fatal(err)
	}
	got := n.Neighbors(ids[0])
	if len(got) != 2 || got[0] != ids[2] || got[1] != ids[3] {
		t.Errorf("Neighbors = %v, want [2 3]", got)
	}
	if got := n.Neighbors(ids[1]); got != nil {
		t.Errorf("isolated node Neighbors = %v", got)
	}
}

// TestConnectReplacesBothEnds: a link is held once per endpoint, so a
// second Connect on the pair, whichever way round, must rewrite both
// ends in place and leave Links with one entry for it, in (A, B) order.
func TestConnectReplacesBothEnds(t *testing.T) {
	s, n, ids := newTestNet(t, 3)
	for _, pair := range [][2]int{{1, 2}, {0, 2}, {0, 1}} {
		if err := n.Connect(ids[pair[0]], ids[pair[1]], LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect(ids[1], ids[0], LinkConfig{Delay: core.Band{Min: 0.5, Max: 0.5}}); err != nil {
		t.Fatal(err)
	}
	arrived := map[NodeID]float64{}
	for _, id := range ids[:2] {
		n.SetHandler(id, func(m Message) { arrived[m.To] = s.Now() })
	}
	n.Send(ids[0], ids[1], nil)
	n.Send(ids[1], ids[0], nil)
	s.Run()
	if arrived[ids[0]] != 0.5 || arrived[ids[1]] != 0.5 {
		t.Errorf("arrivals over the replaced link = %v, want 0.5 at both ends", arrived)
	}
	links := n.Links()
	want := [][2]NodeID{{ids[0], ids[1]}, {ids[0], ids[2]}, {ids[1], ids[2]}}
	if len(links) != len(want) {
		t.Fatalf("Links = %+v, want %d entries", links, len(want))
	}
	for i, l := range links {
		if l.A != want[i][0] || l.B != want[i][1] {
			t.Errorf("Links[%d] = %d-%d, want %d-%d", i, l.A, l.B, want[i][0], want[i][1])
		}
	}
	if d := links[0].Cfg.Delay.Max; d != 0.5 {
		t.Errorf("Links[0] delay bound = %v, want the replacement's 0.5", d)
	}
}

func TestBroadcast(t *testing.T) {
	s, n, ids := newTestNet(t, 4)
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}
	if err := Star(n, ids[0], ids[1:], cfg); err != nil {
		t.Fatal(err)
	}
	received := make(map[NodeID]int)
	for _, id := range ids[1:] {
		id := id
		n.SetHandler(id, func(Message) { received[id]++ })
	}
	if sent := n.Broadcast(ids[0], "hello"); sent != 3 {
		t.Errorf("Broadcast sent %d, want 3", sent)
	}
	s.Run()
	for _, id := range ids[1:] {
		if received[id] != 1 {
			t.Errorf("node %d received %d, want 1", id, received[id])
		}
	}
}

func TestPartition(t *testing.T) {
	s, n, ids := newTestNet(t, 4)
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}
	if err := FullMesh(n, ids, cfg); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, id := range ids {
		n.SetHandler(id, func(Message) { delivered++ })
	}
	msgs := counted(n)
	n.Partition([]NodeID{ids[0], ids[1]}, []NodeID{ids[2], ids[3]})
	if n.Send(ids[0], ids[2], "x") {
		t.Error("Send across partition returned true")
	}
	if !n.Send(ids[0], ids[1], "x") {
		t.Error("Send within partition returned false")
	}
	if msgs("partitioned") != 1 {
		t.Errorf("partitioned = %d", msgs("partitioned"))
	}
	if n.Connected(ids[0], ids[2]) {
		t.Error("Connected across partition")
	}
	n.Heal()
	if !n.Send(ids[0], ids[2], "x") {
		t.Error("Send after Heal returned false")
	}
	s.Run()
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
}

func TestPartitionUnlistedNodesShareGroup(t *testing.T) {
	_, n, ids := newTestNet(t, 4)
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}
	if err := FullMesh(n, ids, cfg); err != nil {
		t.Fatal(err)
	}
	n.Partition([]NodeID{ids[0]})
	if !n.Connected(ids[1], ids[2]) {
		t.Error("unlisted nodes should share the implicit group")
	}
	if n.Connected(ids[0], ids[1]) {
		t.Error("listed and unlisted nodes should be separated")
	}
}

func TestMaxOneWayDelayAndXi(t *testing.T) {
	_, n, ids := newTestNet(t, 3)
	if err := n.Connect(ids[0], ids[1], LinkConfig{Delay: core.Band{Max: 0.05}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(ids[1], ids[2], LinkConfig{Delay: core.Band{Min: 0.2, Max: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if got := n.MaxOneWayDelay(); got != 0.2 {
		t.Errorf("MaxOneWayDelay = %v", got)
	}
	if got := n.Xi(); got != 0.4 {
		t.Errorf("Xi = %v", got)
	}
}

// TestXiFollowsRewiring checks that the kept MaxOneWayDelay is dropped by
// whatever changes a link: a fault injector that replaces a link through
// Connect mid-run, or removes one, must see the new bound at once.
func TestXiFollowsRewiring(t *testing.T) {
	_, n, ids := newTestNet(t, 3)
	step := func(what string, want float64) {
		t.Helper()
		for i := 0; i < 2; i++ { // the second read is the kept answer
			if got := n.Xi(); got != want {
				t.Fatalf("after %s, read %d: Xi = %v, want %v", what, i+1, got, want)
			}
		}
	}
	step("nothing", 0)
	if err := n.Connect(ids[0], ids[1], LinkConfig{Delay: core.Band{Min: 0.05, Max: 0.05}}); err != nil {
		t.Fatal(err)
	}
	step("the first link", 0.1)
	if err := n.Connect(ids[1], ids[2], LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}); err != nil {
		t.Fatal(err)
	}
	step("a faster second link", 0.1)
	if err := n.Connect(ids[1], ids[2], LinkConfig{Delay: core.Band{Min: 0.01 * 20, Max: 0.01 * 20}}); err != nil {
		t.Fatal(err)
	}
	step("a delay spike on the second link", 0.4)
	if err := n.Connect(ids[0], ids[0], LinkConfig{Delay: core.Band{Min: 9, Max: 9}}); err == nil {
		t.Fatal("self-link accepted")
	}
	step("a refused Connect", 0.4)
}

func TestFullMesh(t *testing.T) {
	_, n, ids := newTestNet(t, 5)
	if err := FullMesh(n, ids, LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := len(n.Neighbors(id)); got != 4 {
			t.Errorf("node %d has %d neighbors, want 4", id, got)
		}
	}
}

func TestRingLineStar(t *testing.T) {
	cfg := LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.01}}

	_, n, ids := newTestNet(t, 5)
	if err := Ring(n, ids, cfg); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := len(n.Neighbors(id)); got != 2 {
			t.Errorf("ring node %d has %d neighbors, want 2", id, got)
		}
	}

	_, n2, ids2 := newTestNet(t, 5)
	if err := Line(n2, ids2, cfg); err != nil {
		t.Fatal(err)
	}
	if got := len(n2.Neighbors(ids2[0])); got != 1 {
		t.Errorf("line endpoint has %d neighbors, want 1", got)
	}
	if got := len(n2.Neighbors(ids2[2])); got != 2 {
		t.Errorf("line middle has %d neighbors, want 2", got)
	}

	_, n3, ids3 := newTestNet(t, 5)
	if err := Star(n3, ids3[0], ids3[1:], cfg); err != nil {
		t.Fatal(err)
	}
	if got := len(n3.Neighbors(ids3[0])); got != 4 {
		t.Errorf("hub has %d neighbors, want 4", got)
	}

	if err := Ring(n3, ids3[:1], cfg); err == nil {
		t.Error("Ring with one node should error")
	}
	if err := Line(n3, ids3[:1], cfg); err == nil {
		t.Error("Line with one node should error")
	}
}

func TestRoundTripBoundedByXi(t *testing.T) {
	// Request/reply over a link must complete within xi, the paper's bound.
	s, n, ids := newTestNet(t, 2)
	cfg := LinkConfig{Delay: core.Band{Max: 0.1}}
	if err := n.Connect(ids[0], ids[1], cfg); err != nil {
		t.Fatal(err)
	}
	var rtts []float64
	var sentAt float64
	n.SetHandler(ids[1], func(m Message) {
		n.Send(ids[1], ids[0], "reply")
	})
	n.SetHandler(ids[0], func(m Message) {
		rtts = append(rtts, s.Now()-sentAt)
	})
	for i := 0; i < 200; i++ {
		at := float64(i)
		s.RunUntil(at)
		sentAt = s.Now()
		n.Send(ids[0], ids[1], "req")
		s.RunUntil(at + 0.999)
	}
	xi := n.Xi()
	if len(rtts) != 200 {
		t.Fatalf("got %d round trips", len(rtts))
	}
	for i, rtt := range rtts {
		if rtt > xi {
			t.Fatalf("round trip %d took %v > xi %v", i, rtt, xi)
		}
	}
}

func TestAsymmetricLink(t *testing.T) {
	s, n, ids := newTestNet(t, 2)
	// Forward (low->high) 0.1 s, reverse (high->low) 0.4 s.
	err := n.Connect(ids[0], ids[1], LinkConfig{
		Delay:        core.Band{Min: 0.1, Max: 0.1},
		ReverseDelay: &core.Band{Min: 0.4, Max: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fwdAt, revAt float64
	n.SetHandler(ids[1], func(Message) { fwdAt = s.Now() })
	n.SetHandler(ids[0], func(Message) { revAt = s.Now() })
	n.Send(ids[0], ids[1], "fwd")
	n.Send(ids[1], ids[0], "rev")
	s.Run()
	if fwdAt != 0.1 {
		t.Errorf("forward delivery at %v, want 0.1", fwdAt)
	}
	if revAt != 0.4 {
		t.Errorf("reverse delivery at %v, want 0.4", revAt)
	}
	// Xi reflects the slower direction.
	if got := n.Xi(); got != 0.8 {
		t.Errorf("Xi = %v, want 0.8", got)
	}
}

func TestAsymmetricRoundTripWithinXi(t *testing.T) {
	s, n, ids := newTestNet(t, 2)
	err := n.Connect(ids[0], ids[1], LinkConfig{
		Delay:        core.Band{Max: 0.02},
		ReverseDelay: &core.Band{Min: 0.05, Max: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetHandler(ids[1], func(Message) { n.Send(ids[1], ids[0], "reply") })
	var rtts []float64
	var sentAt float64
	n.SetHandler(ids[0], func(Message) { rtts = append(rtts, s.Now()-sentAt) })
	for i := 0; i < 100; i++ {
		at := float64(i)
		s.RunUntil(at)
		sentAt = s.Now()
		n.Send(ids[0], ids[1], "req")
		s.RunUntil(at + 0.99)
	}
	xi := n.Xi()
	for _, rtt := range rtts {
		if rtt > xi {
			t.Fatalf("round trip %v exceeds xi %v", rtt, xi)
		}
	}
	if len(rtts) != 100 {
		t.Fatalf("got %d round trips", len(rtts))
	}
}

// TestLinkBand: every message carries the band of the link it crossed,
// the band its delays are drawn in, the hull of its two directions,
// and none (Max 0) where every delay is zero.
func TestLinkBand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    LinkConfig
		lo, hi float64
	}{
		{"uniform", LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.05}}, 0.01, 0.05},
		{"fixed uniform", LinkConfig{Delay: core.Band{Min: 0.02, Max: 0.02}}, 0.02, 0.02},
		{"scaled", LinkConfig{Delay: core.Band{Min: 0.01 * 2, Max: 0.05 * 2}}, 0.02, 0.1},
		{"asymmetric hull", LinkConfig{Delay: core.Band{Min: 0.01, Max: 0.02}, ReverseDelay: &core.Band{Min: 0.005, Max: 0.04}}, 0.005, 0.04},
		{"zero-delay reverse", LinkConfig{Delay: core.Band{Max: 0.01}, ReverseDelay: &core.Band{}}, 0, 0.01},
		{"zero delay", LinkConfig{Delay: core.Band{}}, 0, 0},
	} {
		s, n, ids := newTestNet(t, 2)
		if err := n.Connect(ids[0], ids[1], tc.cfg); err != nil {
			t.Fatal(err)
		}
		var got []Message
		for _, id := range ids {
			n.SetHandler(id, func(m Message) { got = append(got, m) })
		}
		n.Send(ids[0], ids[1], "ping")
		n.Send(ids[1], ids[0], "pong")
		s.RunUntil(1)
		if len(got) != 2 {
			t.Fatalf("%s: %d deliveries, want 2", tc.name, len(got))
		}
		for _, m := range got {
			if m.Band != (core.Band{Min: tc.lo, Max: tc.hi}) {
				t.Errorf("%s: %d -> %d carried %+v, want [%v, %v]", tc.name, m.From, m.To, m.Band, tc.lo, tc.hi)
			}
		}
	}
}
