package member

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// cluster is the protocol's third substrate, for tests: N Protocols over
// an in-memory delivery loop that loses and delays datagrams from a
// seeded generator, each member ticking on a fake local clock that runs
// at exactly its claimed drift bound (even members fast, odd ones slow).
// Like the UDP peer it feeds the detector through Merge alone. There are
// no sockets and no sleeps, so a run is a pure function of its seed.
type cluster struct {
	t       *testing.T
	rng     *rand.Rand
	cfg     DetectorConfig
	loss    float64 // probability a datagram is dropped
	nodes   []*Protocol[int]
	silent  []bool // neither ticks nor receives: a crashed process
	stalled []bool // receives but does not tick: a starved gossip loop
	now     float64
	queue   eventQueue
	seq     int
	log     []logged
	// evidence[i][j] is i's local clock when the transport last gave it
	// evidence of j, judged from outside the Protocol: a digest j sent,
	// or a merged row that moved j's entry to Alive.
	evidence []map[int]float64
}

// logged is one roster transition, with who recorded it, when on its
// own clock, and whether its own detector (a Tick) produced it.
type logged struct {
	observer int
	local    float64
	tick     bool
	Change[int]
}

type event struct {
	at      float64
	seq     int
	to      int
	from    int          // -1 for a tick
	entries []Entry[int] // the digest, for a delivery
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// testConfig is a 1 s heartbeat on clocks that drift by a whole percent,
// over a network that may hold a datagram for a fifth of a period.
func testConfig() DetectorConfig {
	return DetectorConfig{
		Period: 1, LocalDelta: 1e-2, RemoteDelta: 1e-2, Xi: 0.2,
	}
}

// newCluster starts n members, member i knowing only seeds(i), with
// their first ticks spread over one period.
func newCluster(t *testing.T, n int, seed uint64, loss float64, seeds func(i int) []int) *cluster {
	t.Helper()
	c := &cluster{
		t: t, rng: rand.New(rand.NewPCG(seed, 0x6d656d626572)), cfg: testConfig(), loss: loss,
		silent: make([]bool, n), stalled: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		p, err := NewProtocol(i, 1, c.cfg, 0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds(i) {
			p.Seed(s)
		}
		c.nodes = append(c.nodes, p)
		c.evidence = append(c.evidence, map[int]float64{})
		c.schedule(event{at: c.rng.Float64() * c.cfg.Period, to: i, from: -1})
	}
	return c
}

// star seeds everyone with member 0, and member 0 with member 1: one
// address each, as the real-socket integration test does.
func star(i int) []int {
	if i == 0 {
		return []int{1}
	}
	return []int{0}
}

// rate is member i's clock rate: exactly at its claimed bound.
func (c *cluster) rate(i int) float64 {
	if i%2 == 0 {
		return 1 + c.cfg.LocalDelta
	}
	return 1 - c.cfg.LocalDelta
}

// local is member i's clock at the current real time.
func (c *cluster) local(i int) float64 { return c.now * c.rate(i) }

func (c *cluster) schedule(e event) {
	c.seq++
	e.seq = c.seq
	heap.Push(&c.queue, e)
}

func (c *cluster) record(i int, tick bool, changes []Change[int]) {
	for _, ch := range changes {
		c.log = append(c.log, logged{observer: i, local: c.local(i), tick: tick, Change: ch})
		if !tick && ch.To == Alive && ch.ID != i {
			c.evidence[i][ch.ID] = c.local(i)
		}
	}
}

// send puts one digest from i on the wire to every target, subject to
// loss and a delay of up to Xi.
func (c *cluster) send(i int, targets []int) {
	for _, to := range targets {
		digest := c.nodes[i].Digest(nil)
		if c.rng.Float64() < c.loss {
			continue
		}
		c.schedule(event{at: c.now + c.rng.Float64()*c.cfg.Xi, to: to, from: i, entries: digest})
	}
}

// run advances real time to until.
func (c *cluster) run(until float64) {
	for len(c.queue) > 0 && c.queue[0].at <= until {
		e := heap.Pop(&c.queue).(event)
		c.now = e.at
		i := e.to
		if c.silent[i] {
			continue // a crashed member's pending tick dies with it
		}
		if e.from >= 0 {
			c.evidence[i][e.from] = c.local(i)
			c.record(i, false, c.nodes[i].Merge(e.from, e.entries, c.local(i), func() (float64, float64) {
				return c.local(i), 0.05
			}))
			continue
		}
		if !c.stalled[i] {
			c.record(i, true, c.nodes[i].Tick(c.local(i), c.local(i), 0.05))
			c.send(i, c.nodes[i].GossipTargets(c.rng.IntN, nil))
		}
		// The next tick is one period later on this member's own clock.
		c.schedule(event{at: c.now + c.cfg.Period/c.rate(i), to: i, from: -1})
	}
	c.now = until
}

// views returns what every running member's roster records about id.
func (c *cluster) views(id int) []Entry[int] {
	var out []Entry[int]
	for i, p := range c.nodes {
		if c.silent[i] {
			continue
		}
		e := p.roster.entries[id]
		out = append(out, e)
	}
	return out
}

// requireAll fails unless every running member records id with the
// given status and generation.
func (c *cluster) requireAll(id int, st Status, gen uint64) {
	c.t.Helper()
	for _, e := range c.views(id) {
		if e.Status != st || e.Gen != gen {
			c.t.Fatalf("t=%.2f: member %d recorded as %v gen %d somewhere, want %v gen %d everywhere: %+v",
				c.now, id, e.Status, e.Gen, st, gen, c.views(id))
		}
	}
}

// TestProtocolConvergesFromOneSeed: eight members that each know one
// address learn the whole cluster through a network that drops a fifth
// of the datagrams, and every run of the same seed is the same run.
func TestProtocolConvergesFromOneSeed(t *testing.T) {
	const n = 8
	c := newCluster(t, n, 1, 0.2, star)
	c.run(60)
	for id := 0; id < n; id++ {
		c.requireAll(id, Alive, 1)
	}
	for i, p := range c.nodes {
		if p.Roster().AliveCount() != n || p.Evictions() != 0 {
			t.Errorf("member %d: %d alive, %d evictions", i, p.Roster().AliveCount(), p.Evictions())
		}
	}
	again := newCluster(t, n, 1, 0.2, star)
	again.run(60)
	if !reflect.DeepEqual(c.log, again.log) {
		t.Error("two runs of one seed recorded different transitions")
	}
}

// TestProtocolNoSuspicionWithoutLoss is the detector's soundness carried
// up to the protocol: four members, so that one tick's Fanout plus the
// exploration slot addresses every other member, on a network that loses
// nothing, with every clock at its claimed drift bound. Nobody is ever
// suspected, by anyone, from the first tick on.
func TestProtocolNoSuspicionWithoutLoss(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		c := newCluster(t, 4, seed, 0, star)
		c.run(500)
		for _, l := range c.log {
			if l.To != Alive {
				t.Fatalf("seed %d: member %d recorded %d as %v at local %.2f", seed, l.observer, l.ID, l.To, l.local)
			}
		}
		for id := range c.nodes {
			c.requireAll(id, Alive, 1)
		}
	}
}

// TestProtocolEvictsSilencedMember is completeness: a member that stops
// is accused by each survivor's own detector no earlier than
// SuspectAfter after that survivor's last evidence of it, on the
// survivor's own clock, and every roster records it Evicted within
// EvictAfter plus the propagation bound: the delay bound Xi, for the
// victim's last digest to land, and one heartbeat period, for the
// survivor's next tick to notice — all of it on the slowest clock the
// drift bound allows. Four members and no loss, so that the victim's
// last digest reaches every survivor directly.
func TestProtocolEvictsSilencedMember(t *testing.T) {
	const victim = 2
	c := newCluster(t, 4, 3, 0, star)
	c.run(30)
	c.requireAll(victim, Alive, 1)
	c.silent[victim] = true
	stopped := c.now
	before := len(c.log)
	dc := c.cfg
	bound := (dc.EvictAfter()+dc.Period)/(1-dc.LocalDelta) + dc.Xi
	c.run(stopped + bound)
	c.requireAll(victim, Evicted, 1)

	accusers, evictions := 0, uint64(0)
	for _, l := range c.log[before:] {
		if l.ID != victim && l.To != Alive {
			t.Fatalf("member %d recorded live member %d as %v", l.observer, l.ID, l.To)
		}
		if l.tick && l.To == Suspect {
			accusers++
			if silence := l.local - c.evidence[l.observer][victim]; silence <= dc.SuspectAfter() {
				t.Errorf("member %d accused after %.3f s of silence on its clock, deadline %.3f",
					l.observer, silence, dc.SuspectAfter())
			}
		}
	}
	for i, p := range c.nodes {
		if i != victim {
			evictions += p.Evictions()
		}
	}
	if accusers == 0 || evictions == 0 || evictions > 3 {
		t.Errorf("%d survivors accused and %d evicted the victim through their own detector", accusers, evictions)
	}
}

// TestProtocolAccusedLiveMemberRejoins: a member whose gossip loop
// stalls while its socket is still served goes quiet and is suspected;
// it adopts the claim the moment a digest carries it home (its own
// sequence has not moved, so the claim is fresher than what it knows of
// itself) and rejoins at the next incarnation, which the old life's
// eviction can no longer touch; once it ticks again every roster
// converges on that incarnation.
func TestProtocolAccusedLiveMemberRejoins(t *testing.T) {
	const accused = 3
	c := newCluster(t, 5, 4, 0.1, star)
	c.run(30)
	c.requireAll(accused, Alive, 1)
	c.stalled[accused] = true
	before := len(c.log)
	c.run(30 + 4*c.cfg.EvictAfter())
	var own []Change[int]
	for _, l := range c.log[before:] {
		if l.observer == accused && l.ID == accused {
			own = append(own, l.Change)
		}
	}
	want := []Change[int]{
		{ID: accused, From: Alive, To: Suspect, Gen: 1},
		{ID: accused, From: Suspect, To: Alive, Gen: 2},
	}
	if !reflect.DeepEqual(own, want) {
		t.Fatalf("the accused member recorded %+v about itself, want %+v", own, want)
	}
	c.stalled[accused] = false
	c.run(c.now + 30)
	c.requireAll(accused, Alive, 2)
	for id := range c.nodes {
		if id != accused {
			c.requireAll(id, Alive, 1)
		}
	}
}

// TestProtocolLeaveNeverBecomesEviction: a departure announced with one
// farewell digest is recorded as Left by everyone, through a lossy
// network, and silence after it never escalates.
func TestProtocolLeaveNeverBecomesEviction(t *testing.T) {
	const leaver = 1
	c := newCluster(t, 5, 5, 0.2, star)
	c.run(30)
	before := len(c.log)
	c.record(leaver, false, []Change[int]{c.nodes[leaver].Leave()})
	c.send(leaver, c.nodes[leaver].GossipTargets(nil, nil))
	c.silent[leaver] = true
	c.run(30 + 5*c.cfg.EvictAfter())
	c.requireAll(leaver, Left, 1)
	for _, l := range c.log[before:] {
		if l.ID == leaver && l.To == Evicted {
			t.Errorf("member %d recorded the departure as an eviction", l.observer)
		}
	}
	for i, p := range c.nodes {
		if p.Evictions() != 0 {
			t.Errorf("member %d evicted %d members", i, p.Evictions())
		}
	}
}

// TestMergeCreditsTransportSender is the evidence rule: a digest is
// direct evidence of whoever the transport says sent it. A stale row is
// evidence of nobody, wherever in the digest it stands.
func TestMergeCreditsTransportSender(t *testing.T) {
	const a, b = 1, 2
	p, err := NewProtocol(0, 1, testConfig(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Merge(b, []Entry[int]{{ID: b, Gen: 1, Seq: 5, Status: Alive}}, 10, nil)
	stale := []Entry[int]{{ID: b, Gen: 1, Seq: 3, Status: Alive}}
	if changes := p.Merge(a, stale, 20, nil); len(changes) != 0 {
		t.Fatalf("a stale row changed the roster: %+v", changes)
	}
	if got := p.det.heard[a]; got != 20 {
		t.Errorf("sender last heard at %v, want 20", got)
	}
	if got := p.det.heard[b]; got != 10 {
		t.Errorf("first row's member last heard at %v, want 10 (a stale row is no evidence)", got)
	}
	// The sender need not be a member yet; if it never becomes one, the
	// eviction verdict drops it from the detector all the same.
	changes := p.Tick(20+3*p.cfg.EvictAfter(), 0, 0)
	if want := []Change[int]{{ID: b, From: Alive, To: Evicted, Gen: 1}}; !reflect.DeepEqual(changes, want) {
		t.Fatalf("after a long silence: changes %+v, want %+v", changes, want)
	}
	if len(p.det.heard) != 0 || p.Evictions() != 1 {
		t.Errorf("detector still tracks %v after %d evictions", p.det.heard, p.Evictions())
	}
}

// TestMergeSelfAccusationOrder pins the order `timesim -churn` prints: a
// fresher claim that the owner is suspect is adopted first, then
// answered by the rejoin — and only a Suspect or Evicted claim is.
func TestMergeSelfAccusationOrder(t *testing.T) {
	p, err := NewProtocol(0, 4, testConfig(), 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	claim := []Entry[int]{{ID: 0, Gen: 4, Seq: 1, Status: Suspect}, {ID: 7, Gen: 1, Seq: 1, Status: Alive}}
	got := p.Merge(7, claim, 1, func() (float64, float64) { return 200, 0.25 })
	want := []Change[int]{
		{ID: 0, From: Alive, To: Suspect, Gen: 4},
		{ID: 0, From: Suspect, To: Alive, Gen: 5},
		{ID: 7, To: Alive, Gen: 1, Joined: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("changes %+v, want %+v", got, want)
	}
	if self := p.roster.entries[p.roster.self]; self.Gen != 5 || self.Seq != 0 || self.C != 200 || self.E != 0.25 {
		t.Errorf("rejoined as %+v", self)
	}
	// The old incarnation's eviction is stale now, and a claim that the
	// owner left is adopted without a rejoin: the next advertisement
	// supersedes it.
	if got := p.Merge(7, []Entry[int]{{ID: 0, Gen: 4, Seq: 1, Status: Evicted}}, 2, nil); len(got) != 0 {
		t.Errorf("stale eviction changed the roster: %+v", got)
	}
	got = p.Merge(7, []Entry[int]{{ID: 0, Gen: 5, Seq: 0, Status: Left}}, 3, nil)
	if want := []Change[int]{{ID: 0, From: Alive, To: Left, Gen: 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("changes %+v, want %+v", got, want)
	}
	p.Tick(4, 0, 0)
	if self := p.roster.entries[p.roster.self]; self.Status != Alive || self.Gen != 5 || self.Seq != 1 {
		t.Errorf("after the next tick the owner is %+v", self)
	}
}

// TestDigestAndMergeAllocs holds the per-message half of the protocol to
// what the simulator's pooled gossip payload needs: once the buffers
// have grown, writing a digest and merging one allocate nothing.
func TestDigestAndMergeAllocs(t *testing.T) {
	p, err := NewProtocol(0, 1, testConfig(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Entry[int], 6)
	for i := range rows {
		rows[i] = Entry[int]{ID: i + 1, Gen: 1, Status: Alive}
	}
	var digest []Entry[int]
	round := func() {
		for i := range rows {
			rows[i].Seq++ // every row fresher: the most work a merge does
		}
		if got := p.Merge(1, rows, 1, nil); len(got) != len(rows) {
			t.Fatalf("merged %d of %d rows", len(got), len(rows))
		}
		digest = p.Digest(digest[:0])
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocations per merge and digest, want 0", allocs)
	}
}

// TestNewProtocolRejectsBadDeadline: a configuration whose deadline is
// meaningless fails at construction, and read on its own fails safe: it
// never suspects anyone.
func TestNewProtocolRejectsBadDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.RemoteDelta = 1
	if _, err := NewProtocol(0, 1, cfg, 0, 0); err == nil {
		t.Fatal("RemoteDelta = 1 accepted")
	}
	if got := cfg.EvictAfter(); !math.IsInf(got, 1) {
		t.Fatalf("degenerate deadline %v, want +Inf", got)
	}
}
