package member

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestSupersedesPrecedence(t *testing.T) {
	base := Entry[int]{ID: 1, Gen: 2, Seq: 5, Status: Alive}
	cases := []struct {
		name string
		a    Entry[int]
		want bool
	}{
		{"higher gen wins", Entry[int]{ID: 1, Gen: 3, Seq: 0, Status: Alive}, true},
		{"lower gen loses", Entry[int]{ID: 1, Gen: 1, Seq: 99, Status: Evicted}, false},
		{"higher seq wins", Entry[int]{ID: 1, Gen: 2, Seq: 6, Status: Alive}, true},
		{"lower seq loses", Entry[int]{ID: 1, Gen: 2, Seq: 4, Status: Evicted}, false},
		{"same gen/seq worse status wins", Entry[int]{ID: 1, Gen: 2, Seq: 5, Status: Suspect}, true},
		{"identical does not supersede", base, false},
	}
	for _, tc := range cases {
		if got := tc.a.Supersedes(base); got != tc.want {
			t.Errorf("%s: Supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSupersedesStrictOrder: merging is commutative — for any pair, at
// most one direction supersedes, so gossip converges independent of
// delivery order.
func TestSupersedesStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		a := Entry[int]{ID: 1, Gen: uint64(rng.IntN(3)), Seq: uint64(rng.IntN(3)),
			Status: Status(1 + rng.IntN(4))}
		b := Entry[int]{ID: 1, Gen: uint64(rng.IntN(3)), Seq: uint64(rng.IntN(3)),
			Status: Status(1 + rng.IntN(4))}
		if a.Supersedes(b) && b.Supersedes(a) {
			t.Fatalf("both directions supersede: %+v vs %+v", a, b)
		}
		if a.Supersedes(a) {
			t.Fatalf("entry supersedes itself: %+v", a)
		}
	}
}

func TestRosterLifecycle(t *testing.T) {
	r := newRoster(0, 1, 1e-4)
	if r.Len() != 1 || r.AliveCount() != 1 {
		t.Fatalf("fresh roster: len %d alive %d", r.Len(), r.AliveCount())
	}

	// A new member joins via gossip.
	ch, changed := r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 1, Status: Alive, E: 0.5})
	if !changed || !ch.Joined || ch.To != Alive {
		t.Fatalf("join: %+v changed=%v", ch, changed)
	}

	// Stale observation is ignored.
	if _, changed := r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 0, Status: Evicted}); changed {
		t.Fatal("stale observation merged")
	}

	// A fresher heartbeat refreshes quality.
	if _, changed := r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 2, Status: Alive, E: 0.1}); !changed {
		t.Fatal("fresh heartbeat ignored")
	}
	if e := r.entries[2]; e.E != 0.1 {
		t.Fatalf("quality not refreshed: %+v", e)
	}

	// Accusation at the known (gen, seq) sticks...
	ch, changed = r.accuse(2, Suspect)
	if !changed || ch.From != Alive || ch.To != Suspect {
		t.Fatalf("accuse: %+v changed=%v", ch, changed)
	}
	// ...is idempotent...
	if _, changed := r.accuse(2, Suspect); changed {
		t.Fatal("re-accusation changed the roster")
	}
	// ...escalates...
	if ch, changed = r.accuse(2, Evicted); !changed || ch.To != Evicted {
		t.Fatalf("escalation: %+v changed=%v", ch, changed)
	}
	// ...and loses to the member's next heartbeat.
	if _, changed := r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 3, Status: Alive}); !changed {
		t.Fatal("reinstating heartbeat lost to accusation")
	}
	if e := r.entries[2]; e.Status != Alive {
		t.Fatalf("member not reinstated: %+v", e)
	}

	// The owner can never be accused locally.
	if _, changed := r.accuse(0, Evicted); changed {
		t.Fatal("owner accused itself")
	}

	// Voluntary departure cannot be overridden by an accusation.
	r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 4, Status: Left})
	if _, changed := r.accuse(2, Evicted); changed {
		t.Fatal("accusation overrode a voluntary departure")
	}
}

func TestRosterSelfTransitions(t *testing.T) {
	r := newRoster("a", 7, 1e-4)
	if r.Self() != "a" {
		t.Fatalf("Self = %q, want the owner a", r.Self())
	}
	r.advertise(100, 0.05)
	adv := r.entries[r.self]
	if adv.Seq != 1 || adv.Status != Alive || adv.C != 100 || adv.E != 0.05 {
		t.Fatalf("advertise: %+v", adv)
	}
	if ch := r.leave(); ch != (Change[string]{ID: "a", From: Alive, To: Left, Gen: 7}) {
		t.Fatalf("leave: %+v", ch)
	}
	left := r.entries[r.self]
	if left.Seq != 2 || left.Status != Left {
		t.Fatalf("leave: %+v", left)
	}
	if !left.Supersedes(adv) {
		t.Fatal("leave does not supersede the preceding advertisement")
	}
	if ch := r.rejoin(200, 0.9); ch != (Change[string]{ID: "a", From: Left, To: Alive, Gen: 8}) {
		t.Fatalf("rejoin: %+v", ch)
	}
	re := r.entries[r.self]
	if re.Gen != 8 || re.Seq != 0 || re.Status != Alive {
		t.Fatalf("rejoin: %+v", re)
	}
	if !re.Supersedes(left) {
		t.Fatal("rejoin does not supersede the departure")
	}
	// A remote eviction of the previous incarnation loses to the rejoin.
	evict := Entry[string]{ID: "a", Gen: 7, Seq: 9, Status: Evicted}
	if evict.Supersedes(re) {
		t.Fatal("stale eviction supersedes the new incarnation")
	}
}

func TestRosterMembersSorted(t *testing.T) {
	r := newRoster(5, 1, 0)
	for _, id := range []int{9, 3, 7, 1} {
		r.upsert(Entry[int]{ID: id, Gen: 1, Seq: 1, Status: Alive})
	}
	var got []int
	for _, e := range r.Members() {
		got = append(got, e.ID)
	}
	want := []int{1, 3, 5, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members order %v, want %v", got, want)
	}
}

func TestDigestRotationCoversRoster(t *testing.T) {
	r := newRoster(0, 1, 0)
	for id := 1; id <= 9; id++ {
		r.upsert(Entry[int]{ID: id, Gen: 1, Seq: 1, Status: Alive})
	}
	seen := map[int]bool{}
	for round := 0; round < 12; round++ {
		r.advertise(0, 0)
		d := r.digest(nil, 4)
		if len(d) != 4 {
			t.Fatalf("digest size %d, want 4", len(d))
		}
		if d[0].ID != 0 {
			t.Fatalf("digest does not lead with self: %+v", d[0])
		}
		for _, e := range d[1:] {
			seen[e.ID] = true
		}
	}
	for id := 1; id <= 9; id++ {
		if !seen[id] {
			t.Fatalf("rotation never gossiped member %d (seen %v)", id, seen)
		}
	}
	// Degenerate sizes.
	if d := r.digest(nil, 0); d != nil {
		t.Fatalf("max=0 digest non-empty: %v", d)
	}
	if d := r.digest(nil, 1); len(d) != 1 || d[0].ID != 0 {
		t.Fatalf("max=1 digest: %v", d)
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	bad := []DetectorConfig{
		{Period: 0},
		{Period: math.Inf(1)},
		{Period: 1, LocalDelta: -0.1},
		{Period: 1, RemoteDelta: 1},
		{Period: 1, Xi: -1},
	}
	for _, cfg := range bad {
		if _, err := newDetector[int](cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := newDetector[int](DetectorConfig{Period: 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestDetectorNoFalseSuspicionAtClaimedDrift is the failure-detector
// soundness property: a correct server whose clock drifts at exactly
// the claimed bound — observed on a local clock that itself drifts at
// exactly its claimed bound, across a network that uses its full delay
// bound adversarially — is never suspected, for randomized parameter
// draws.
func TestDetectorNoFalseSuspicionAtClaimedDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	for trial := 0; trial < 300; trial++ {
		period := 0.5 + rng.Float64()*63.5
		localDelta := rng.Float64() * 1e-2
		remoteDelta := rng.Float64() * 1e-2
		xi := rng.Float64() * 0.2
		cfg := DetectorConfig{
			Period: period, LocalDelta: localDelta, RemoteDelta: remoteDelta, Xi: xi,
		}
		d, err := newDetector[int](cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The sender's clock runs slow at exactly (1-remoteDelta): its
		// heartbeats land every period/(1-remoteDelta) real seconds.
		// The observer's clock runs fast at exactly (1+localDelta).
		// Adversarial jitter: the first arrival is instant, every
		// later one maximally delayed by xi (in real seconds; charging
		// the full xi on the local clock is strictly worse than
		// reality, and the deadline still must hold).
		realStep := period / (1 - remoteDelta)
		arrivalLocal := func(k int) float64 {
			real := float64(k) * realStep
			if k > 0 {
				real += xi // worst-case jitter vs. heartbeat 0
			}
			return real * (1 + localDelta)
		}
		d.observe(1, arrivalLocal(0))
		for k := 1; k < 8; k++ {
			// Check just before the k-th heartbeat lands (a hair under
			// the exact arrival instant: at k == misses the silence
			// equals the deadline to within float rounding, and the
			// deadline is exclusive).
			if v := d.check(arrivalLocal(k) - 1e-6); len(v) > 0 && k <= misses {
				t.Fatalf("trial %d: correct server suspected after %d periods: %+v (cfg %+v)",
					trial, k, v, cfg)
			}
			d.observe(1, arrivalLocal(k))
		}
		// After the catch-up observation there must be no standing verdict.
		if v := d.check(arrivalLocal(7) + 0.001); len(v) != 0 {
			t.Fatalf("trial %d: verdict after fresh observation: %+v", trial, v)
		}
	}
}

// TestDetectorEvictsStoppedClockWithinBound is the completeness
// property: a server that stops heartbeating (stopped clock, dead
// process) is suspected once its silence exceeds SuspectAfter and
// evicted once it exceeds EvictAfter — and not a check earlier.
func TestDetectorEvictsStoppedClockWithinBound(t *testing.T) {
	cfg := DetectorConfig{Period: 10, LocalDelta: 1e-4, RemoteDelta: 1e-4, Xi: 0.1}
	d, err := newDetector[int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.observe(7, 100)
	suspectAt := 100 + cfg.SuspectAfter()
	evictAt := 100 + cfg.EvictAfter()

	if v := d.check(suspectAt - 1e-9); len(v) != 0 {
		t.Fatalf("suspected before the bound: %+v", v)
	}
	v := d.check(suspectAt + 0.01)
	if len(v) != 1 || v[0].ID != 7 || v[0].Status != Suspect {
		t.Fatalf("want one Suspect verdict, got %+v", v)
	}
	// Edge-triggered: no re-report while still only suspect.
	if v := d.check(suspectAt + 1); len(v) != 0 {
		t.Fatalf("suspect re-reported: %+v", v)
	}
	v = d.check(evictAt + 0.01)
	if len(v) != 1 || v[0].Status != Evicted {
		t.Fatalf("want one Evicted verdict, got %+v", v)
	}
	if v[0].Silence <= 0 {
		t.Fatalf("verdict silence %v not positive", v[0].Silence)
	}
	// Still edge-triggered at the terminal stage.
	if v := d.check(evictAt + 100); len(v) != 0 {
		t.Fatalf("eviction re-reported: %+v", v)
	}
	// Forget clears state; the next incarnation starts fresh.
	d.forget(7)
	if _, ok := d.heard[7]; ok {
		t.Fatal("Forget kept timing state")
	}
}

// TestDetectorSilentPastSuspectStraightToEvict: a long scheduling gap
// can carry a member past both deadlines between checks; the detector
// must then report the eviction (not silently skip it because the
// suspect stage was never observed).
func TestDetectorSkipsToEviction(t *testing.T) {
	cfg := DetectorConfig{Period: 1}
	d, err := newDetector[int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.observe(3, 0)
	v := d.check(1000)
	if len(v) != 1 || v[0].Status != Evicted {
		t.Fatalf("want straight-to-Evicted, got %+v", v)
	}
}

// TestDetectorVerdictOrderDeterministic: verdicts come out in ID order
// regardless of observation order.
func TestDetectorVerdictOrderDeterministic(t *testing.T) {
	cfg := DetectorConfig{Period: 1}
	d, _ := newDetector[int](cfg)
	for _, id := range []int{5, 1, 9, 3} {
		d.observe(id, 0)
	}
	v := d.check(100)
	var got []int
	for _, verdict := range v {
		got = append(got, verdict.ID)
	}
	if want := []int{1, 3, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict order %v, want %v", got, want)
	}
}

func TestSelectRanksByAdvertisedError(t *testing.T) {
	r := newRoster(0, 1, 0)
	r.upsert(Entry[int]{ID: 1, Gen: 1, Seq: 1, Status: Alive, E: 0.3})
	r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 1, Status: Alive, E: 0.1})
	r.upsert(Entry[int]{ID: 3, Gen: 1, Seq: 1, Status: Alive, E: 0.2})
	r.upsert(Entry[int]{ID: 4, Gen: 1, Seq: 1, Status: Alive, E: 0.1}) // ties with 2, higher ID
	got := selectTargets(r, 3, nil, nil)
	if want := []int{2, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select = %v, want %v", got, want)
	}
}

func TestSelectExploresUnpreferred(t *testing.T) {
	r := newRoster(0, 1, 0)
	r.upsert(Entry[int]{ID: 1, Gen: 1, Seq: 1, Status: Alive, E: 0.1})
	r.upsert(Entry[int]{ID: 2, Gen: 1, Seq: 1, Status: Alive, E: 0.2})
	r.upsert(Entry[int]{ID: 3, Gen: 1, Seq: 1, Status: Evicted, E: 0.05})
	r.upsert(Entry[int]{ID: 4, Gen: 1, Seq: 1, Status: Left, E: 0.01})

	// Without exploration: only the live members, never Left/Evicted.
	got := selectTargets(r, 3, nil, nil)
	if want := []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select = %v, want %v", got, want)
	}

	// With exploration: the evicted (recovering) member is reachable;
	// the departed one never is.
	rng := rand.New(rand.NewPCG(3, 3))
	explored := map[int]bool{}
	for i := 0; i < 50; i++ {
		ids := selectTargets(r, 1, rng.IntN, nil)
		if len(ids) != 2 || ids[0] != 1 {
			t.Fatalf("Select = %v, want rank pick 1 plus exploration", ids)
		}
		explored[ids[1]] = true
	}
	if !explored[3] {
		t.Fatal("exploration never picked the evicted member")
	}
	if !explored[2] {
		t.Fatal("exploration never picked the below-K live member")
	}
	if explored[4] {
		t.Fatal("exploration picked a voluntarily-departed member")
	}
	if explored[0] {
		t.Fatal("exploration picked the owner")
	}
}

func TestSelectDefaultsAndEmpty(t *testing.T) {
	p, err := NewProtocol(0, 1, DetectorConfig{Period: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PollTargets(nil, nil); len(got) != 0 {
		t.Fatalf("empty roster selected %v", got)
	}
	var rows []Entry[int]
	for id := 1; id <= 9; id++ {
		rows = append(rows, Entry[int]{ID: id, Gen: 1, Seq: 1, Status: Alive, E: float64(id)})
	}
	p.Merge(1, rows, 0, nil)
	if got := p.PollTargets(nil, nil); len(got) != 3 { // default K
		t.Fatalf("default K selected %v", got)
	}
	if got := p.GossipTargets(nil, nil); len(got) != 2 { // default Fanout
		t.Fatalf("default Fanout selected %v", got)
	}
	if got := p.Digest(nil); len(got) != 8 { // default DigestMax
		t.Fatalf("default DigestMax sent %d entries", len(got))
	}
	if got := p.cfg.EvictAfter(); got != 6 { // 2 * misses periods
		t.Fatalf("misses evicts after %v s", got)
	}
	// Exploration with everything preferred: no extra pick.
	r2 := newRoster(0, 1, 0)
	r2.upsert(Entry[int]{ID: 1, Gen: 1, Seq: 1, Status: Alive})
	got := selectTargets(r2, 3, func(int) int { return 0 }, nil)
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select = %v, want %v", got, want)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Alive: "alive", Suspect: "suspect", Left: "left", Evicted: "evicted",
		Status(0): "none", Status(99): "status(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestGossipConvergenceOrderIndependent: merging the same set of
// observations in any order converges every roster to the same state.
func TestGossipConvergenceOrderIndependent(t *testing.T) {
	// A pile of observations about three members, including conflicts.
	obs := []Entry[int]{
		{ID: 1, Gen: 1, Seq: 1, Status: Alive, E: 0.5},
		{ID: 1, Gen: 1, Seq: 3, Status: Alive, E: 0.2},
		{ID: 1, Gen: 1, Seq: 3, Status: Suspect, E: 0.2},
		{ID: 2, Gen: 1, Seq: 9, Status: Left},
		{ID: 2, Gen: 2, Seq: 0, Status: Alive, E: 1.0},
		{ID: 3, Gen: 1, Seq: 4, Status: Evicted},
		{ID: 3, Gen: 1, Seq: 5, Status: Alive, E: 0.7},
	}
	rng := rand.New(rand.NewPCG(7, 8))
	var want []Entry[int]
	for trial := 0; trial < 64; trial++ {
		perm := rng.Perm(len(obs))
		r := newRoster(0, 1, 0)
		for _, idx := range perm {
			r.upsert(obs[idx])
		}
		got := r.Members()
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order-dependent convergence:\n got %+v\nwant %+v", got, want)
		}
	}
	// And the converged state is the per-member maximum.
	r := newRoster(0, 1, 0)
	for _, e := range obs {
		r.upsert(e)
	}
	if e := r.entries[1]; e.Seq != 3 || e.Status != Suspect {
		t.Fatalf("member 1 converged to %+v", e)
	}
	if e := r.entries[2]; e.Gen != 2 || e.Status != Alive {
		t.Fatalf("member 2 converged to %+v", e)
	}
	if e := r.entries[3]; e.Seq != 5 || e.Status != Alive {
		t.Fatalf("member 3 converged to %+v", e)
	}
}
