package chaos

import (
	"os"
	"strings"
	"testing"

	"disttime/internal/txn"
)

// TestTxnGeneratedCampaignsPass runs 50 generated campaigns with the
// transaction workload enabled against the real rules and the real
// commit-wait. External consistency and the HLC bound must hold on
// every one: the taint gate silences checks the theorems no longer
// back, so any violation is a real protocol bug, a workload bug, or a
// monitor bug.
func TestTxnGeneratedCampaignsPass(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		c := Generate(seed)
		c.Txn = true
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

// TestTxnRunDeterministic extends the determinism contract to
// transaction campaigns: the workload draws every think gap from the
// service's simulator, so verdicts — step counts included — must be
// reproducible.
func TestTxnRunDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := Generate(seed)
		c.Txn = true
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
	}
}

// TestTxnEncodeRoundTrip pins the optional txn=1 reproducer field.
func TestTxnEncodeRoundTrip(t *testing.T) {
	c := Generate(3)
	c.Txn = true
	line := c.String()
	if !strings.Contains(line, " txn=1") {
		t.Fatalf("encoded line lacks txn=1: %s", line)
	}
	got, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	if !got.Txn || got.String() != line {
		t.Fatalf("round trip changed the line:\n in: %s\nout: %s", line, got.String())
	}
}

// TestHarnessCatchesBuggyCommitWait is the workload's harness
// self-test: a commit policy that skips the wait must be caught by the
// external-consistency checker, and shrinking must cut the reproducer
// down to at most three faults while preserving the violated
// invariant. Skew alone (initial offsets inside the error bound)
// suffices to trip the bug, so shrinking typically empties the fault
// schedule entirely.
func TestHarnessCatchesBuggyCommitWait(t *testing.T) {
	buggy := func(c Campaign) (Verdict, error) { return run(c, plants{waiter: txn.BuggyCommitWait{}}, nil) }
	caught := 0
	for seed := uint64(1); seed <= 20 && caught < 2; seed++ {
		c := Generate(seed)
		c.Txn = true
		v, err := buggy(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.OK {
			continue
		}
		caught++
		first, _ := v.First()
		if first.Invariant != "txn-external-consistency" {
			t.Fatalf("seed %d: BuggyCommitWait broke %q first: %v", seed, first.Invariant, first)
		}
		res, err := Shrink(c, buggy)
		if err != nil {
			t.Fatalf("seed %d: shrink: %v", seed, err)
		}
		if res.Verdict.OK {
			t.Fatalf("seed %d: shrink returned a passing campaign", seed)
		}
		got, _ := res.Verdict.First()
		if got.Invariant != "txn-external-consistency" {
			t.Errorf("seed %d: shrink changed the invariant %q -> %q", seed, first.Invariant, got.Invariant)
		}
		if len(res.Campaign.Faults) > 3 {
			t.Errorf("seed %d: shrunk reproducer still has %d faults: %s",
				seed, len(res.Campaign.Faults), res.Campaign)
		}
		// The minimized reproducer must replay identically, and must pass
		// under the real commit-wait (it is a bug in the policy, not the
		// protocol).
		again, err := buggy(res.Campaign)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if again.Steps != res.Verdict.Steps || again.OK {
			t.Errorf("seed %d: minimized reproducer does not replay identically", seed)
		}
		clean, err := Run(res.Campaign)
		if err != nil {
			t.Fatalf("seed %d: clean replay: %v", seed, err)
		}
		if !clean.OK {
			first, _ := clean.First()
			t.Errorf("seed %d: shrunk campaign fails under the real commit-wait: %v", seed, first)
		}
		t.Logf("seed %d shrunk to: %s", seed, res.Campaign)
	}
	if caught == 0 {
		t.Fatal("no seed produced a campaign BuggyCommitWait fails; the checker is asleep")
	}
}

// TestBuggyCommitWaitCorpus replays the committed reproducer under the
// injected buggy policy: it must still fail with the invariant it was
// minimized for. (TestCorpusReplays covers the `expect: ok` half — the
// same campaign passes under the real commit-wait.)
func TestBuggyCommitWaitCorpus(t *testing.T) {
	data, err := os.ReadFile("corpus/buggy-commit-wait.repro")
	if err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range strings.Split(string(data), "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			line = l
		}
	}
	c, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	if !c.Txn {
		t.Fatalf("reproducer does not enable the workload: %s", line)
	}
	v, err := run(c, plants{waiter: txn.BuggyCommitWait{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := v.First()
	if !ok || first.Invariant != "txn-external-consistency" {
		t.Fatalf("expected a txn-external-consistency violation, got %+v", v.Violations)
	}
}
