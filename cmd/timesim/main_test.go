package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1", "E15", "A1", "fig1", "recovery", "ablation-slew"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E11") {
		t.Errorf("output missing experiment table:\n%s", buf.String())
	}
}

func TestRunSingleAblation(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "A1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Errorf("output missing ablation table:\n%s", buf.String())
	}
}

// TestRunExperimentAnyCase: the flag's help offers "A3", and every family
// of the registry answers to its ID and slug in either case.
func TestRunExperimentAnyCase(t *testing.T) {
	for name, want := range map[string]string{"a1": "A1:", "Ablation-Self": "A1:", "s1": "S1:"} {
		var buf strings.Builder
		if err := run([]string{"-experiment", name}, &buf); err != nil {
			t.Fatalf("-experiment %s: %v", name, err)
		}
		if !strings.HasPrefix(buf.String(), want) {
			t.Errorf("-experiment %s: output does not start with %q:\n%s", name, want, buf.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "nope"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunNothingToDo(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("no-op invocation accepted")
	}
}

// TestRunScaleUntilNotFinite: a NaN duration would panic in the kernel
// and an infinite one would never return, so the sweep refuses both.
func TestRunScaleUntilNotFinite(t *testing.T) {
	for _, until := range []string{"NaN", "+Inf"} {
		var buf strings.Builder
		if err := run([]string{"-scale", "-scale-until", until}, &buf); err == nil {
			t.Errorf("-scale-until %s accepted", until)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunCSV(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig3", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# E11:") {
		t.Errorf("CSV comment header missing:\n%s", out)
	}
	if !strings.Contains(out, "algorithm,resulting C") {
		t.Errorf("CSV header row missing:\n%s", out)
	}
}

func TestRunChaosBadCampaignCount(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-chaos", "-campaigns", "0"}, &buf); err == nil {
		t.Error("zero campaign count accepted")
	}
}

func TestRunChaosReplayLine(t *testing.T) {
	var buf strings.Builder
	line := "v1 seed=3 n=4 topo=star fn=IM rec=0 dur=300 sync=30 faults=-"
	if err := run([]string{"-chaos", "-replay", line}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "replay seed=3 verdict=ok") {
		t.Errorf("unexpected replay output:\n%s", buf.String())
	}
}

func TestRunChaosReplayMalformed(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-chaos", "-replay", "v1 nonsense"}, &buf); err == nil {
		t.Error("malformed reproducer accepted")
	}
}

func TestRunFigures(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-figures"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Figure 4"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("figures output missing %q", want)
		}
	}
}
