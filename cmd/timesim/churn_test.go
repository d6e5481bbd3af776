package main

import (
	"strings"
	"testing"
)

func churnArgs(seed string) []string { return []string{"-churn", "3", "-churn-seed", seed} }

// TestRunChurnDeterministic is the satellite acceptance check: two runs
// with the same seed produce byte-identical membership timelines.
func TestRunChurnDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(churnArgs("9"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(churnArgs("9"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("seeded churn runs diverge:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"churn demo:", "alive->left", "left->alive", "false-evictions=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}
	// Different seeds must explore different schedules.
	var c strings.Builder
	if err := run(churnArgs("10"), &c); err != nil {
		t.Fatal(err)
	}
	if c.String() == out {
		t.Error("different churn seeds produced identical timelines")
	}
}
