package chaos

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"disttime/internal/core"
)

// TestGeneratedCampaignsPass runs a spread of generated campaigns against
// the real synchronization rules. The theorems say the monitored
// invariants hold under every schedule the generator can produce, so any
// failure here is either a real protocol bug or a monitor bug — both
// worth failing loudly over.
func TestGeneratedCampaignsPass(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		c := Generate(seed)
		v, err := Run(c)
		if err != nil {
			t.Fatalf("seed %d: %v\ncampaign: %s", seed, err, c)
		}
		if !v.OK {
			first, _ := v.First()
			t.Errorf("seed %d: %v\ncampaign: %s", seed, first, c)
		}
	}
}

// TestRunDeterministic re-runs the same campaign and demands an identical
// verdict, step count included. This is the determinism contract shrinking
// and corpus replay both lean on.
func TestRunDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		c := Generate(seed)
		a, err := Run(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(c)
		if err != nil {
			t.Fatalf("seed %d re-run: %v", seed, err)
		}
		if a.Steps != b.Steps || a.OK != b.OK || len(a.Violations) != len(b.Violations) {
			t.Fatalf("seed %d: verdicts diverge: %+v vs %+v", seed, a, b)
		}
		for i := range a.Violations {
			if a.Violations[i] != b.Violations[i] {
				t.Fatalf("seed %d: violation %d diverges: %v vs %v",
					seed, i, a.Violations[i], b.Violations[i])
			}
		}
	}
}

// TestEncodeRoundTrip checks String∘Parse is the identity on generated
// campaigns, faults and all.
func TestEncodeRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		c := Generate(seed)
		line := c.String()
		got, err := Parse(line)
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, line, err)
		}
		if got.String() != line {
			t.Fatalf("seed %d: round trip changed the line:\n in: %s\nout: %s", seed, line, got.String())
		}
	}
}

// TestGeneratorPinned holds the bytes of the generated campaigns: seeds
// 1..60 of Generate and 1..10 of GenerateAdversarial, hashed. Seeded
// `timesim -chaos` output rests on a seed keeping its campaign, so a
// change to the generators or to the codec that moves one line fails
// here; a new fault kind is drawn only from a new seed range.
func TestGeneratorPinned(t *testing.T) {
	const want = "8663b5fb5d188614c31dc5d9c1377e0f3ea81e8c3031a799fdf86d3cc6fa841b"
	h := sha256.New()
	for s := uint64(1); s <= 60; s++ {
		fmt.Fprintln(h, Generate(s).String())
	}
	for s := uint64(1); s <= 10; s++ {
		fmt.Fprintln(h, GenerateAdversarial(s).String())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("generated campaigns hash to %s, want %s", got, want)
	}
}

// TestParseRejectsMalformed exercises the codec's error paths.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"v2 seed=1",
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30", // missing faults
		"v1 seed=1 seed=2 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=-",
		"v1 seed=1 n=3 topo=mesh fn=MM rec=2 dur=300 sync=30 faults=-",
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=zap:1@50",
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=stop@50",        // missing target
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=loss@50*0.5",    // missing window
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=part@50+60",     // missing groups
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=stop:9@50",      // target out of range
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=crash:1@290+60", // window overruns
		"v1 seed=1 n=3 topo=bus fn=MM rec=0 dur=300 sync=30 faults=-",
		"v1 seed=1 n=3 topo=mesh fn=XX rec=0 dur=300 sync=30 faults=-",
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=crash:0@NaN+10",  // start not a number
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=delay@10+10*Inf", // infinite factor
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=race:0@10*Inf",   // infinite rate
		"v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=false:0@10*Inf",  // infinite jump
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) accepted a malformed line", line)
		}
	}
}

// TestHarnessCatchesBuggyMM is the self-test the whole harness exists
// for: a deliberately broken MM rule (transit-error term dropped) must be
// caught by the monitor, and shrinking must cut the reproducer down to at
// most three faults while preserving the violated invariant.
func TestHarnessCatchesBuggyMM(t *testing.T) {
	buggy := func(c Campaign) (Verdict, error) { return RunInjected(c, BuggyMM{}) }
	caught := 0
	for seed := uint64(1); seed <= 60 && caught < 3; seed++ {
		c := Generate(seed)
		if c.FnName != "MM" {
			continue
		}
		v, err := buggy(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.OK {
			continue
		}
		caught++
		first, _ := v.First()
		res, err := Shrink(c, buggy)
		if err != nil {
			t.Fatalf("seed %d: shrink: %v", seed, err)
		}
		if res.Verdict.OK {
			t.Fatalf("seed %d: shrink returned a passing campaign", seed)
		}
		got, _ := res.Verdict.First()
		if got.Invariant != first.Invariant {
			t.Errorf("seed %d: shrink changed the invariant %q -> %q", seed, first.Invariant, got.Invariant)
		}
		if len(res.Campaign.Faults) > 3 {
			t.Errorf("seed %d: shrunk reproducer still has %d faults: %s",
				seed, len(res.Campaign.Faults), res.Campaign)
		}
		if res.Campaign.Dur > c.Dur {
			t.Errorf("seed %d: shrink grew the duration %g -> %g", seed, c.Dur, res.Campaign.Dur)
		}
		// The minimized reproducer must replay to the same verdict.
		again, err := buggy(res.Campaign)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if again.Steps != res.Verdict.Steps || again.OK {
			t.Errorf("seed %d: minimized reproducer does not replay identically", seed)
		}
	}
	if caught == 0 {
		t.Fatal("no seed produced an MM campaign that BuggyMM fails; the monitor is asleep")
	}
}

// TestShrinkKeepsPassingCampaign checks Shrink is the identity on
// campaigns that do not fail.
func TestShrinkKeepsPassingCampaign(t *testing.T) {
	c := Generate(1)
	res, err := Shrink(c, Run)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK || res.Runs != 1 || res.Campaign.String() != c.String() {
		t.Fatalf("Shrink altered a passing campaign: %+v", res)
	}
}

// corpusEntry is one committed reproducer file: its `# expect:` comment
// and its one non-comment line.
type corpusEntry struct{ path, expect, line string }

// readCorpus reads every file under corpus/.
func readCorpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("corpus", "*.repro"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Fatal("no corpus files found")
	}
	var out []corpusEntry
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		e := corpusEntry{path: path}
		for _, l := range strings.Split(string(data), "\n") {
			l = strings.TrimSpace(l)
			switch {
			case strings.HasPrefix(l, "# expect:"):
				e.expect = strings.TrimSpace(strings.TrimPrefix(l, "# expect:"))
			case l == "" || strings.HasPrefix(l, "#"):
			default:
				e.line = l
			}
		}
		out = append(out, e)
	}
	return out
}

// TestCorpusReplays replays every committed reproducer and checks its
// expectation line. Corpus files carry `# expect: ok` (must pass under
// the real rules) or `# expect: <invariant>` comments; the remaining
// non-comment line is the reproducer itself.
func TestCorpusReplays(t *testing.T) {
	for _, e := range readCorpus(t) {
		path, expect, line := e.path, e.expect, e.line
		if expect == "" || line == "" {
			t.Errorf("%s: missing expectation or reproducer line", path)
			continue
		}
		c, err := Parse(line)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		a, err := Run(c)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		b, err := Run(c)
		if err != nil || a.Steps != b.Steps || a.OK != b.OK {
			t.Errorf("%s: replay is not deterministic", path)
		}
		switch expect {
		case "ok":
			if !a.OK {
				first, _ := a.First()
				t.Errorf("%s: expected ok, got %v", path, first)
			}
		default:
			first, ok := a.First()
			if !ok || first.Invariant != expect {
				t.Errorf("%s: expected first violation %q, got %+v", path, expect, a.Violations)
			}
		}
	}
}

// TestMonitorCatchesPlantedStepBack sets one server's clock register back
// 1 ms in a fault-free campaign, between two probes with no sync reset.
// Written past the bookkeeping (Clock().Set, as a faulty oscillator would)
// the step-back is below rule MM-1's rate floor, and the monitor must
// report monotonic-clock; the same correction through SetClock is a
// reset and must report nothing.
func TestMonitorCatchesPlantedStepBack(t *testing.T) {
	// Server 2 of seed 1 has delta+drift ≈ 2e-5, so the floor leaves it
	// 0.1 ms of slack over a 5 s probe interval, well under the step.
	const (
		node = 2
		at   = 101.0 // between the probes at 100 s and 105 s
		next = 105.0
	)
	cases := []struct {
		name   string
		set    func(s *core.Server)
		resets int // the resets the set itself counts
		want   []string
	}{
		{"register", func(s *core.Server) { s.Clock().Set(at, s.Read(at)-1e-3) }, 0, []string{"monotonic-clock"}},
		{"SetClock", func(s *core.Server) { s.SetClock(at, s.Read(at)-1e-3, s.ErrorAt(at)+1e-3) }, 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Campaign{Seed: 1, N: 4, Topo: "mesh", FnName: "IM", Dur: 200, Sync: 20}
			svc, err := c.build(nil)
			if err != nil {
				t.Fatal(err)
			}
			m := newMonitor(svc, c, nil)
			srv := svc.Nodes[node].Server
			var before int
			svc.Sim.At(at, func() { before = srv.Resets(); tc.set(srv) })
			svc.Run(next)
			if moved := srv.Resets() - before; moved != tc.resets {
				t.Fatalf("%d resets between the step and the next probe, want %d", moved, tc.resets)
			}
			svc.Run(c.Dur)
			var got []string
			for _, v := range m.violations {
				if v.Node != node || v.T != next {
					t.Errorf("unexpected violation %v", v)
				}
				got = append(got, v.Invariant)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("violations %q, want %q", got, tc.want)
			}
		})
	}
}

// TestHarnessCatchesRatePlants is the rate discipline's harness
// self-test: each planted discipline must be caught on the campaigns the
// generator draws, its reproducer shrunk to at most three faults with
// its invariant kept, and its committed corpus campaign, which passes
// under the real rules (TestCorpusReplays), must break that invariant
// under the plant. BuggySlew loses containment; BuggyAnchor is seen by
// re-anchor, since only a faulted server recovers and containment
// exempts it.
func TestHarnessCatchesRatePlants(t *testing.T) {
	for _, tc := range []struct {
		rule      core.RateRule
		corpus    string
		invariant string
	}{
		{BuggySlew{}, "buggy-slew.repro", "containment"},
		{BuggyAnchor{}, "buggy-anchor.repro", "re-anchor"},
	} {
		buggy := func(c Campaign) (Verdict, error) { return run(c, plants{rule: tc.rule}, nil) }
		caught := false
		for seed := uint64(1); seed <= 120 && !caught; seed++ {
			c := Generate(seed)
			v, err := buggy(c)
			if err != nil {
				t.Fatalf("%T seed %d: %v", tc.rule, seed, err)
			}
			first, failed := v.First()
			if !failed || first.Invariant != tc.invariant {
				continue
			}
			caught = true
			res, err := Shrink(c, buggy)
			if err != nil {
				t.Fatalf("%T seed %d: shrink: %v", tc.rule, seed, err)
			}
			if got, ok := res.Verdict.First(); !ok || got.Invariant != tc.invariant || len(res.Campaign.Faults) > 3 {
				t.Errorf("%T seed %d: shrunk to %s, first violation %+v", tc.rule, seed, res.Campaign, got)
			}
		}
		if !caught {
			t.Errorf("%T: no generated campaign broke %s; the monitor is asleep", tc.rule, tc.invariant)
		}
		found := false
		for _, e := range readCorpus(t) {
			if filepath.Base(e.path) != tc.corpus {
				continue
			}
			found = true
			c, err := Parse(e.line)
			if err != nil {
				t.Fatal(err)
			}
			v, err := buggy(c)
			if err != nil {
				t.Fatal(err)
			}
			if first, ok := v.First(); !ok || first.Invariant != tc.invariant {
				t.Errorf("%s under %T: first violation %+v, want %s", tc.corpus, tc.rule, v.Violations, tc.invariant)
			}
		}
		if !found {
			t.Errorf("corpus/%s is missing", tc.corpus)
		}
	}
}
