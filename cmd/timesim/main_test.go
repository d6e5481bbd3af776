package main

import (
	"os"
	"path/filepath"
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

// TestRunChaosBadAdvSteps: a search of no steps is refused, as a batch
// of no campaigns is, not quietly given a default.
func TestRunChaosBadAdvSteps(t *testing.T) {
	for _, steps := range []string{"0", "-3"} {
		var buf strings.Builder
		if err := run([]string{"-chaos", "-adversarial", "-campaigns", "1", "-adv-steps", steps}, &buf); err == nil {
			t.Errorf("-adv-steps %s accepted:\n%s", steps, buf.String())
		}
	}
}

// TestRunObservationNeedsChaos: -metrics and -trace-out observe -chaos
// runs, so passing either to another mode, which would write nothing, is
// an error.
func TestRunObservationNeedsChaos(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-list", "-metrics", filepath.Join(dir, "m.json")},
		{"-experiment", "fig3", "-trace-out", filepath.Join(dir, "t.jsonl")},
		{"-metrics", filepath.Join(dir, "m.json")},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("timesim %s accepted", strings.Join(args, " "))
		}
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

// TestRunChaosTraceWriteFails: a span log that cannot be written fails
// the run, though every campaign passed.
func TestRunChaosTraceWriteFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to refuse the writes")
	}
	var buf strings.Builder
	line := "v1 seed=3 n=4 topo=star fn=IM rec=0 dur=300 sync=30 faults=-"
	if err := run([]string{"-chaos", "-replay", line, "-trace-out", "/dev/full"}, &buf); err == nil {
		t.Errorf("a failed span write exits zero:\n%s", buf.String())
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
