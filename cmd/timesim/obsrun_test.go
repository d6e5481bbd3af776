package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObservedRunDeterministic: two `timesim -metrics -trace-out`
// invocations write byte-identical files.
func TestObservedRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := func(n string) (string, string) {
		return filepath.Join(dir, "m"+n+".json"), filepath.Join(dir, "t"+n+".jsonl")
	}
	m1, t1 := paths("1")
	m2, t2 := paths("2")
	var out1, out2 strings.Builder
	if err := run([]string{"-metrics", m1, "-trace-out", t1}, &out1); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-metrics", m2, "-trace-out", t2}, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("stdout differs:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	for _, pair := range [][2]string{{m1, m2}, {t1, t2}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}
	// The snapshot actually carries the expected metric families.
	data, _ := os.ReadFile(m1)
	for _, want := range []string{
		"service_sync_rounds_total", "sim_events_executed_total",
		"simnet_messages_delivered_total", "simnet_delay_seconds",
		"service_error_after_seconds",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	// And the span log is JSONL with the documented schema.
	spans, _ := os.ReadFile(t1)
	lines := bytes.Split(bytes.TrimSpace(spans), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("empty span log")
	}
	for _, want := range []string{`"span":"sync_round"`, `"rule":"MM-2"`, `"before":{"c":`} {
		if !bytes.Contains(lines[0], []byte(want)) {
			t.Errorf("span line missing %q: %s", want, lines[0])
		}
	}
}

// TestChaosMetricsPassive checks that -chaos -metrics writes a snapshot
// while leaving the campaign report (including every Steps fingerprint)
// byte-identical to an unobserved batch.
func TestChaosMetricsPassive(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "chaos.json")
	var observed, plain strings.Builder
	if err := run([]string{"-chaos", "-campaigns", "5", "-metrics", mPath}, &observed); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-chaos", "-campaigns", "5"}, &plain); err != nil {
		t.Fatal(err)
	}
	if observed.String() != plain.String() {
		t.Errorf("observed chaos batch diverged from unobserved:\n%s\nvs\n%s",
			observed.String(), plain.String())
	}
	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chaos_campaigns_total", "chaos_invariant_checks_total"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("chaos metrics snapshot missing %q", want)
		}
	}
}
