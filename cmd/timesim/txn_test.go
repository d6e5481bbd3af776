package main

import (
	"strings"
	"testing"
)

func txnArgs(seed string) []string { return []string{"-txn", "-txn-seed", seed} }

// TestRunTxnDeterministic is the satellite acceptance check: two runs
// with the same seed produce byte-identical commit timelines, with no
// external-consistency violations.
func TestRunTxnDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(txnArgs("9"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(txnArgs("9"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("seeded txn runs diverge:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"txn demo:", "commit client=", "violations=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("txn output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("txn demo reported a violation:\n%s", out)
	}
	// Different seeds must explore different schedules.
	var c strings.Builder
	if err := run(txnArgs("10"), &c); err != nil {
		t.Fatal(err)
	}
	if c.String() == out {
		t.Error("different txn seeds produced identical timelines")
	}
}
