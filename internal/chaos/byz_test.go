package chaos

import (
	"fmt"
	"strings"
	"testing"

	"disttime/internal/obs"
)

// TestAdversarialCatchesBuggyIM is the Byzantine tier's harness
// self-test: the hill-climbing scheduler, searching against a planted
// coverage-floor bug (BuggyIM), must walk into a byz-containment
// violation and shrink it to at most three faults — and the minimized
// schedule must pass under the real byzIM, proving the bug, not the
// schedule, is at fault.
func TestAdversarialCatchesBuggyIM(t *testing.T) {
	buggy := func(c Campaign) (Verdict, error) { return RunInjected(c, BuggyIM{}) }
	caught := 0
	for seed := uint64(1); seed <= 10 && caught < 3; seed++ {
		res, err := Adversarial(AdversarialConfig{Seed: seed, Steps: 20, Run: buggy})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Found {
			continue
		}
		caught++
		if res.Shrunk == nil {
			t.Fatalf("seed %d: found a violation but did not shrink it", seed)
		}
		first, ok := res.Shrunk.Verdict.First()
		if !ok || first.Invariant != "byz-containment" {
			t.Errorf("seed %d: shrunk violation is %+v, want byz-containment", seed, first)
		}
		if len(res.Shrunk.Campaign.Faults) > 3 {
			t.Errorf("seed %d: shrunk reproducer still has %d faults: %s",
				seed, len(res.Shrunk.Campaign.Faults), res.Shrunk.Campaign)
		}
		// The minimized schedule must replay identically under the bug...
		again, err := buggy(res.Shrunk.Campaign)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if again.OK || again.Steps != res.Shrunk.Verdict.Steps {
			t.Errorf("seed %d: minimized reproducer does not replay identically", seed)
		}
		// ...and pass under the real envelope: the schedule is within the
		// f < n/3 budget, so only the planted bug can fail it.
		clean, err := Run(res.Shrunk.Campaign)
		if err != nil {
			t.Fatalf("seed %d: clean replay: %v", seed, err)
		}
		if !clean.OK {
			cf, _ := clean.First()
			t.Errorf("seed %d: real byzIM also fails the shrunk schedule: %v", seed, cf)
		}
	}
	if caught == 0 {
		t.Fatal("no adversarial seed cornered BuggyIM; the search or the monitor is asleep")
	}
}

// TestAdversarialCleanByzIM is the acceptance run: 50 seeded adversarial
// searches against the real byzIM must end with zero violations — the
// hill-climber tightening the containment margin as far as it can and
// still finding the envelope sound.
func TestAdversarialCleanByzIM(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		res, err := Adversarial(AdversarialConfig{Seed: seed, Steps: 10})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Found {
			first, _ := res.Verdict.First()
			t.Errorf("seed %d: adversarial search broke byzIM: %v\ncampaign: %s",
				seed, first, res.Best)
		}
		if res.Verdict.MinSlack <= 0 {
			t.Errorf("seed %d: non-positive slack %g without a violation",
				seed, res.Verdict.MinSlack)
		}
	}
}

// TestAdversarialDeterministic re-runs one search and demands the
// identical trajectory: same best campaign, same verdict fingerprint,
// same evaluation count. Adversarial results must be as replayable as
// generated ones.
func TestAdversarialDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, err := Adversarial(AdversarialConfig{Seed: seed, Steps: 10})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Adversarial(AdversarialConfig{Seed: seed, Steps: 10})
		if err != nil {
			t.Fatalf("seed %d re-run: %v", seed, err)
		}
		if a.Best.String() != b.Best.String() || a.Verdict.Steps != b.Verdict.Steps ||
			a.Verdict.MinSlack != b.Verdict.MinSlack || a.Evals != b.Evals {
			t.Fatalf("seed %d: searches diverge:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestByzCodecRoundTrip checks String∘Parse is the identity on
// adversarial campaigns (per-peer offset vectors included) and on
// hand-built campaigns carrying every new field at once.
func TestByzCodecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		c := GenerateAdversarial(seed)
		line := c.String()
		got, err := Parse(line)
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, line, err)
		}
		if got.String() != line {
			t.Fatalf("seed %d: round trip changed the line:\n in: %s\nout: %s",
				seed, line, got.String())
		}
		if len(got.Faults) != len(c.Faults) {
			t.Fatalf("seed %d: fault count changed %d -> %d", seed, len(c.Faults), len(got.Faults))
		}
		for i := range got.Faults {
			if len(got.Faults[i].Peers) != len(c.Faults[i].Peers) {
				t.Fatalf("seed %d fault %d: peer vector length changed", seed, i)
			}
			for j := range got.Faults[i].Peers {
				if got.Faults[i].Peers[j] != c.Faults[i].Peers[j] {
					t.Fatalf("seed %d fault %d: peer %d offset %g -> %g",
						seed, i, j, c.Faults[i].Peers[j], got.Faults[i].Peers[j])
				}
			}
		}
	}
	// Every new field in one line: an equivocating gossiper beside a
	// two-faced replier.
	full := Campaign{
		Seed: 7, N: 4, Topo: "mesh", FnName: "byzIM", Dur: 300, Sync: 30,
		Mem: true,
		Faults: []Fault{
			{Kind: TwoFaced, Target: 0, At: 50, Dur: 40, Peers: []float64{0, 0.05, -0.1, 0.025}},
			{Kind: Equivocate, Target: 2, At: 100, Dur: 50, Peers: []float64{0.03, -0.06, 0, 0.09}},
		},
	}
	line := full.String()
	got, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	if got.String() != line {
		t.Fatalf("full-field round trip changed the line:\n in: %s\nout: %s", line, got.String())
	}
	if !got.Mem {
		t.Fatalf("mem flag lost in round trip: %+v", got)
	}
}

// TestByzCodecBackCompat pins byte identity for pre-Byzantine reproducer
// lines: old lines parse, and re-encode to exactly themselves, so every
// committed corpus file stays valid.
func TestByzCodecBackCompat(t *testing.T) {
	lines := []string{
		"v1 seed=14 n=3 topo=star fn=MM rec=0 dur=50 sync=30 faults=-",
		"v1 seed=5 n=5 topo=star fn=selectIM rec=0 dur=400 sync=60 faults=race:1@190*0.9226;false:4@280*0.6462;race:1@300*0.969;stop:0@350",
		"v1 seed=3 n=4 topo=mesh fn=IM rec=1 mem=1 dur=300 sync=30 faults=churn:2@100+50;loss@150+30*0.5",
	}
	for _, line := range lines {
		c, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		if c.String() != line {
			t.Errorf("legacy line re-encoded differently:\n in: %s\nout: %s", line, c.String())
		}
	}
}

// TestByzParseRejectsMalformed exercises the new codec error paths; a
// row's want, when set, is a substring the error must carry.
func TestByzParseRejectsMalformed(t *testing.T) {
	bad := []struct{ line, want string }{
		// Offset list sized wrong for n.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=twoface:0@50+40=0,0.05", ""},
		// Missing offset list entirely.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=twoface:0@50+40", ""},
		// Unparseable offset.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=twoface:0@50+40=0,x,0,0", ""},
		// Equivocation without membership gossip.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=equiv:0@50+40=0,0.05,0.05,0.05", ""},
		// A reproducer recorded under the removed phi-accrual detector
		// fails loudly; it never replays under the other one.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 mem=1 phi=1 dur=300 sync=30 faults=-", "unknown field"},
		// Missing target.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=twoface@50+40=0,0.05,0.05,0.05", ""},
		// Missing duration.
		{"v1 seed=1 n=4 topo=mesh fn=byzIM rec=0 dur=300 sync=30 faults=twoface:0@50=0,0.05,0.05,0.05", ""},
	}
	for _, b := range bad {
		_, err := Parse(b.line)
		if err == nil {
			t.Errorf("Parse(%q) accepted a malformed line", b.line)
		} else if !strings.Contains(err.Error(), b.want) {
			t.Errorf("Parse(%q) = %v, want an error mentioning %q", b.line, err, b.want)
		}
	}
}

// TestDeadlineNoFalseEvictions runs churn-and-jitter schedules under
// the drift-aware failure detector and counts false evictions. Its
// drift-bound argument promises none while heartbeats flow (announced
// churn, jitter, crashes), so that is asserted hard on loss-free
// schedules; under message loss no timeout detector can avoid evicting
// a silenced-but-alive member, so lossy schedules only demand that the
// counts are part of the deterministic trajectory.
func TestDeadlineNoFalseEvictions(t *testing.T) {
	schedules := []struct {
		line  string
		lossy bool
	}{
		// Announced churn only: every eviction should be of a genuinely
		// departed or crashed member.
		{"v1 seed=11 n=5 topo=mesh fn=IM rec=0 mem=1 dur=600 sync=30 faults=churn:1@100+80;churn:3@300+100", false},
		// Delay spikes past the assumed bound stretch inter-arrivals;
		// messages still arrive.
		{"v1 seed=12 n=6 topo=mesh fn=IM rec=0 mem=1 dur=600 sync=30 faults=delay@100+100*8;churn:2@250+100;delay@400+100*12", false},
		// Churn racing heavy loss: silence is indistinguishable from
		// death, so the detector will wrongly evict.
		{"v1 seed=13 n=5 topo=mesh fn=IM rec=0 mem=1 dur=600 sync=30 faults=churn:1@100+80;loss@120+60*0.6;churn:3@300+100;loss@320+80*0.5", true},
		// A crash the detector is supposed to notice, then heavy loss.
		{"v1 seed=14 n=5 topo=ring fn=MM rec=0 mem=1 dur=600 sync=30 faults=crash:4@150+120;loss@300+120*0.7", true},
	}
	falseEvicts := func(line string) (uint64, uint64) {
		c, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		reg := obs.NewRegistry()
		v, err := RunObserved(c, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK {
			first, _ := v.First()
			t.Errorf("schedule violates invariants: %v\n%s", first, c)
		}
		return reg.Counter("service_member_false_evictions_total").Value(),
			reg.Counter("service_member_evictions_total").Value()
	}
	for _, s := range schedules {
		falseN, evicts := falseEvicts(s.line)
		t.Logf("schedule %q: %d evictions, %d false", s.line, evicts, falseN)
		if !s.lossy && falseN != 0 {
			t.Errorf("deadline detector falsely evicted %d times on loss-free %q; its drift-bound guarantee is broken",
				falseN, s.line)
		}
		if again, _ := falseEvicts(s.line); again != falseN {
			t.Errorf("eviction counts not deterministic on %q", s.line)
		}
	}
}

// TestEquivocateGossipHarmless checks the interval algebra's claim about
// equivocation: conflicting <C, E> gossip corrupts peer selection at
// worst, never containment — time replies stay honest, so a campaign
// that only equivocates must pass every invariant under every rule.
func TestEquivocateGossipHarmless(t *testing.T) {
	for _, fn := range []string{"MM", "IM", "selectIM", "byzIM"} {
		line := fmt.Sprintf(
			"v1 seed=31 n=5 topo=mesh fn=%s rec=0 mem=1 dur=400 sync=30 faults=equiv:1@50+300=0.2,0,-0.2,0.15,-0.15", fn)
		c, err := Parse(line)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		v, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if !v.OK {
			first, _ := v.First()
			t.Errorf("%s: equivocation-only campaign failed: %v", fn, first)
		}
	}
}
